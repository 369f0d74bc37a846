//! Pins the canonical forms of the scenario registry and of the CI smoke
//! corpus. Cache keys, BSNAP snapshot files and shard routing all derive
//! from canonical fingerprints, so a change that silently moved a
//! fingerprint or a canonical job order would invalidate warm caches and
//! snapshots.
//!
//! The registry is pinned in two parts. A scenario whose
//! individualization search never branches is canonicalized by the
//! root's round-based refinement alone, and its digest was recorded
//! before refinement below the root became splitter-driven: those forms
//! must never move. The scenarios in [`BRANCHING`] have forms that follow
//! the refinement below the root, and their digest moves with it.

use bisched_lab::suite;
use bisched_model::canonical::fnv128;
use bisched_model::{canonicalize, InstanceData};
use std::collections::HashSet;

/// The registry scenarios whose canonical search branches.
const BRANCHING: [&str; 4] = [
    "p8-crown64-unit",
    "p4-forest192-bimodal",
    "q6-crown96-uniform",
    "q5-cubic128-unit",
];

/// Digest of the [`BRANCHING`] scenarios.
const REGISTRY_DIGEST: u128 = 0x5be41ad74955f08189b15cb0019c46c9;

/// Digest of every other scenario, unchanged since the unpruned
/// canonicalizer.
const NEVER_BRANCHING_DIGEST: u128 = 0xe3390996c018aae97c00f605b39232f3;

/// The fingerprints of `crates/service/testdata/smoke.jsonl`, in file
/// order. The CI smoke step expects these to spread over all four shards.
const SMOKE_FINGERPRINTS: [u128; 6] = [
    0x9939b6078a1f94eb0e13b935286ca886,
    0x08c910e3b2ddf109d845de72739eff05,
    0x1c017e37871609942b36cf43f2f4602b,
    0xf6b69552ad516c6b12bebfec3414f85d,
    0x3efb24326350b89f7ae0f09f244c48e6,
    0x438ac2bc7211ebcaa10fd928b5a6f6cc,
];

/// FNV-1a digest of `(name, fingerprint, job_perm)` over the scenarios of
/// the quick, full and fptas-scaling suites that `keep` accepts, in
/// registry order.
fn registry_digest(keep: impl Fn(&str) -> bool) -> u128 {
    let mut bytes = Vec::new();
    let mut seen = HashSet::new();
    for name in ["quick", "full", "fptas-scaling"] {
        for scenario in suite(name).expect("registered suite").scenarios {
            if !seen.insert(scenario.name.clone()) || !keep(&scenario.name) {
                continue;
            }
            let canonical = canonicalize(&scenario.build());
            bytes.extend_from_slice(scenario.name.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&canonical.fingerprint.to_le_bytes());
            for j in &canonical.job_perm {
                bytes.extend_from_slice(&j.to_le_bytes());
            }
        }
    }
    fnv128(&bytes)
}

#[test]
fn registry_canonical_forms_match_the_pinned_digest() {
    let digest = registry_digest(|name| BRANCHING.contains(&name));
    assert_eq!(
        digest, REGISTRY_DIGEST,
        "branching scenarios' canonical forms changed: digest {digest:#034x}"
    );
}

#[test]
fn never_branching_registry_forms_are_unchanged() {
    let digest = registry_digest(|name| !BRANCHING.contains(&name));
    assert_eq!(
        digest, NEVER_BRANCHING_DIGEST,
        "never-branching scenarios' canonical forms changed: digest {digest:#034x}"
    );
}

#[test]
fn smoke_corpus_fingerprints_are_pinned() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../service/testdata/smoke.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("smoke corpus readable");
    let fingerprints: Vec<u128> = text
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let data: InstanceData = serde_json::from_str(line).expect("smoke line parses");
            canonicalize(&data.into_instance().expect("smoke instance is valid")).fingerprint
        })
        .collect();
    assert_eq!(fingerprints, SMOKE_FINGERPRINTS);
}
