//! Cache snapshot persistence: a versioned binary file holding every
//! live cache entry at drain time, reloaded (and re-bucketed by route)
//! at the next boot so a restarted daemon answers its working set from
//! cache without re-solving anything.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   5 bytes  b"BSNAP"
//! version 1 byte   currently 1
//! count   u64      number of entries
//! entry*  route u128 · key u128 · cert (u32 len + bytes)
//!         · method (u32 len + UTF-8 name) · guarantee (tag byte + data)
//!         · makespan num/den u64 · lower_bound num/den u64 · seed u64
//!         · assignment (u32 count + u32 per job)
//! ```
//!
//! Guarantee tags: `0` Optimal, `1` Ratio(num u64, den u64), `2`
//! SqrtSumP, `3` OnePlusEps(f64 bits), `4` Heuristic.
//!
//! Only the fields a cache hit can serve travel: `attempts`,
//! `total_time`, and `race_time` describe the *original* solve's work
//! and are already withheld from cache-hit responses, so a reloaded
//! entry carries them empty/zero. A version bump is required for any
//! layout change; an unknown version is refused (the caller falls back
//! to a cold start).
//!
//! A canonicalizer change that moves canonical forms is not a layout
//! change, so the version stays 1. An entry whose form moved can never
//! match, because every hit compares certificates; it ages out of its
//! shard's LRU.

use bisched_core::{Guarantee, SolveReport};
use bisched_model::{Rat, Schedule};
use std::io::{Error, ErrorKind, Result};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 5] = b"BSNAP";
const VERSION: u8 = 1;

/// Upper bound on per-entry variable-length fields (certificate bytes,
/// assignment length): rejects corrupt length prefixes before they turn
/// into huge allocations.
const MAX_FIELD_LEN: u32 = 64 * 1024 * 1024;

/// One cache entry as persisted: the routing fingerprint, the full cache
/// key (route ⊕ config bytes), the collision-proof certificate, and the
/// report itself.
pub(crate) struct SnapshotEntry {
    /// Raw canonical fingerprint — re-bucketing key on reload.
    pub route: u128,
    /// The shard cache's lookup key.
    pub key: u128,
    /// Certificate bytes compared on every hit.
    pub certificate: Vec<u8>,
    /// The cached report.
    pub report: Arc<SolveReport>,
}

/// Serializes `entries` to `path` (atomically: temp file + rename).
pub(crate) fn save(path: &Path, entries: &[SnapshotEntry]) -> Result<()> {
    let mut out: Vec<u8> = Vec::with_capacity(64 + entries.len() * 128);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.route.to_le_bytes());
        out.extend_from_slice(&e.key.to_le_bytes());
        write_bytes(&mut out, &e.certificate);
        let r = &e.report;
        write_bytes(&mut out, r.method.name().as_bytes());
        match &r.guarantee {
            Guarantee::Optimal => out.push(0),
            Guarantee::Ratio(rat) => {
                out.push(1);
                out.extend_from_slice(&rat.num().to_le_bytes());
                out.extend_from_slice(&rat.den().to_le_bytes());
            }
            Guarantee::SqrtSumP => out.push(2),
            Guarantee::OnePlusEps(eps) => {
                out.push(3);
                out.extend_from_slice(&eps.to_bits().to_le_bytes());
            }
            Guarantee::Heuristic => out.push(4),
        }
        out.extend_from_slice(&r.makespan.num().to_le_bytes());
        out.extend_from_slice(&r.makespan.den().to_le_bytes());
        out.extend_from_slice(&r.lower_bound.num().to_le_bytes());
        out.extend_from_slice(&r.lower_bound.den().to_le_bytes());
        out.extend_from_slice(&r.seed.to_le_bytes());
        let assignment = r.schedule.assignment();
        out.extend_from_slice(&(assignment.len() as u32).to_le_bytes());
        for &m in assignment {
            out.extend_from_slice(&m.to_le_bytes());
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, path)
}

/// Reads a snapshot back. Every structural problem — bad magic, unknown
/// version, truncation, an unknown method name — is an
/// [`ErrorKind::InvalidData`] error; the caller treats it as a cold
/// start.
pub(crate) fn load(path: &Path) -> Result<Vec<SnapshotEntry>> {
    let buf = std::fs::read(path)?;
    let mut pos = 0usize;
    if take(&buf, &mut pos, MAGIC.len())? != MAGIC {
        return Err(bad("not a BSNAP snapshot"));
    }
    let version = read_u8(&buf, &mut pos)?;
    if version != VERSION {
        return Err(bad(&format!(
            "snapshot version {version} unsupported (expected {VERSION})"
        )));
    }
    let count = read_u64(&buf, &mut pos)?;
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let route = read_u128(&buf, &mut pos)?;
        let key = read_u128(&buf, &mut pos)?;
        let certificate = read_bytes(&buf, &mut pos)?;
        let method_name = String::from_utf8(read_bytes(&buf, &mut pos)?)
            .map_err(|_| bad("method name is not UTF-8"))?;
        let method = method_name
            .parse()
            .map_err(|e: String| bad(&format!("snapshot method: {e}")))?;
        let guarantee = match read_u8(&buf, &mut pos)? {
            0 => Guarantee::Optimal,
            1 => {
                let num = read_u64(&buf, &mut pos)?;
                let den = read_u64(&buf, &mut pos)?;
                Guarantee::Ratio(rat(num, den)?)
            }
            2 => Guarantee::SqrtSumP,
            3 => Guarantee::OnePlusEps(f64::from_bits(read_u64(&buf, &mut pos)?)),
            4 => Guarantee::Heuristic,
            other => return Err(bad(&format!("unknown guarantee tag {other}"))),
        };
        let makespan = rat(read_u64(&buf, &mut pos)?, read_u64(&buf, &mut pos)?)?;
        let lower_bound = rat(read_u64(&buf, &mut pos)?, read_u64(&buf, &mut pos)?)?;
        let seed = read_u64(&buf, &mut pos)?;
        let jobs = read_u32(&buf, &mut pos)?;
        if jobs > MAX_FIELD_LEN {
            return Err(bad("assignment length over limit"));
        }
        let mut assignment = Vec::with_capacity(jobs as usize);
        for _ in 0..jobs {
            assignment.push(read_u32(&buf, &mut pos)?);
        }
        entries.push(SnapshotEntry {
            route,
            key,
            certificate,
            report: Arc::new(SolveReport {
                schedule: Schedule::new(assignment),
                makespan,
                method,
                guarantee,
                lower_bound,
                attempts: Vec::new(),
                total_time: std::time::Duration::ZERO,
                race_time: None,
                seed,
            }),
        });
    }
    if pos != buf.len() {
        return Err(bad("trailing bytes after the last entry"));
    }
    Ok(entries)
}

fn bad(msg: &str) -> Error {
    Error::new(ErrorKind::InvalidData, msg.to_string())
}

fn rat(num: u64, den: u64) -> Result<Rat> {
    if den == 0 {
        return Err(bad("rational with zero denominator"));
    }
    Ok(Rat::new(num, den))
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let slice = buf
        .get(*pos..*pos + n)
        .ok_or_else(|| bad("truncated snapshot"))?;
    *pos += n;
    Ok(slice)
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    Ok(take(buf, pos, 1)?[0])
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    Ok(u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()))
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    Ok(u64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap()))
}

fn read_u128(buf: &[u8], pos: &mut usize) -> Result<u128> {
    Ok(u128::from_le_bytes(take(buf, pos, 16)?.try_into().unwrap()))
}

fn read_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>> {
    let len = read_u32(buf, pos)?;
    if len > MAX_FIELD_LEN {
        return Err(bad("field length over limit"));
    }
    Ok(take(buf, pos, len as usize)?.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_core::Solver;
    use bisched_graph::Graph;
    use bisched_model::Instance;

    fn sample_report(p: u64) -> Arc<SolveReport> {
        let inst = Instance::identical(2, vec![p, p + 1, 1], Graph::empty(3)).unwrap();
        Arc::new(Solver::new().solve(&inst).unwrap())
    }

    #[test]
    fn snapshot_round_trips_entries_in_order() {
        let dir = std::env::temp_dir().join(format!("bsnap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.bsnap");
        let entries = vec![
            SnapshotEntry {
                route: 0xDEAD_BEEF,
                key: 42,
                certificate: vec![1, 2, 3],
                report: sample_report(5),
            },
            SnapshotEntry {
                route: u128::MAX,
                key: u128::MAX - 7,
                certificate: vec![],
                report: sample_report(9),
            },
        ];
        save(&path, &entries).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in entries.iter().zip(&back) {
            assert_eq!(a.route, b.route);
            assert_eq!(a.key, b.key);
            assert_eq!(a.certificate, b.certificate);
            assert_eq!(a.report.method, b.report.method);
            assert_eq!(a.report.makespan, b.report.makespan);
            assert_eq!(a.report.lower_bound, b.report.lower_bound);
            assert_eq!(a.report.seed, b.report.seed);
            assert_eq!(
                a.report.schedule.assignment(),
                b.report.schedule.assignment()
            );
            // The fields a cache hit never serves come back empty.
            assert!(b.report.attempts.is_empty());
            assert_eq!(b.report.total_time, std::time::Duration::ZERO);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_snapshots_are_refused_not_misread() {
        let dir = std::env::temp_dir().join(format!("bsnap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.bsnap");
        let entries = vec![SnapshotEntry {
            route: 7,
            key: 7,
            certificate: vec![9],
            report: sample_report(3),
        }];
        save(&path, &entries).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Wrong magic.
        std::fs::write(&path, b"NOPE!").unwrap();
        assert!(load(&path).is_err());
        // Future version byte.
        let mut v2 = good.clone();
        v2[5] = 99;
        std::fs::write(&path, &v2).unwrap();
        assert!(load(&path).is_err());
        // Truncated mid-entry.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(load(&path).is_err());
        // Trailing garbage after the declared entries.
        let mut long = good.clone();
        long.push(0);
        std::fs::write(&path, &long).unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
