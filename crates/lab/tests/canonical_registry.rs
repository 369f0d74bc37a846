//! Pins the canonical forms of the scenario registry. Cache keys, BSNAP
//! snapshot files and shard routing all derive from canonical
//! fingerprints, so a change that silently moved any registry scenario's
//! fingerprint or canonical job order would invalidate warm caches and
//! snapshots. The digest was recorded with the unpruned canonicalizer.

use bisched_lab::suite;
use bisched_model::canonical::fnv128;
use bisched_model::canonicalize;
use std::collections::HashSet;

/// FNV-1a digest of `(name, fingerprint, job_perm)` over every scenario
/// of the quick, full and fptas-scaling suites, in registry order.
const REGISTRY_DIGEST: u128 = 0xb808c961234adf12261b65461166bf1b;

#[test]
fn registry_canonical_forms_match_the_pinned_digest() {
    let mut bytes = Vec::new();
    let mut seen = HashSet::new();
    for name in ["quick", "full", "fptas-scaling"] {
        for scenario in suite(name).expect("registered suite").scenarios {
            if !seen.insert(scenario.name.clone()) {
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
    let digest = fnv128(&bytes);
    assert_eq!(
        digest, REGISTRY_DIGEST,
        "registry canonical forms changed: digest {digest:#034x}"
    );
}
