//! The entry-kind table of `tests/support/entry_kinds.rs` under every
//! combination of the environment knobs that leave results bitwise
//! unchanged: `IVMF_PREFETCH` ∈ {0, 1, 2} × `IVMF_SNAPSHOT_DIR` ∈ {unset,
//! a fresh directory}. With the directory set, later sessions of the
//! table warm-restore the snapshots earlier ones saved on drop; the
//! pinned content ids and factor digests must hold either way.
//!
//! One more run sets the retired `IVMF_SPARSE_THRESHOLD=1.0` and
//! `IVMF_TOPK_EIGEN=forced`: no crate reads them, so the same pins hold,
//! a two-thirds-dense input keeps the dense Gram kernel and an
//! unprofitable eigenproblem keeps the dense solve.
//!
//! Everything lives in one `#[test]` because it mutates process-wide
//! variables, and the harness runs test functions concurrently.

#[path = "support/entry_kinds.rs"]
mod entry_kinds;

use ivmf_core::{IsvdConfig, Pipeline};
use ivmf_linalg::random::symmetric_matrix;
use ivmf_linalg::{sym_eigen_topk, sym_eigen_topk_report, topk_profitable, TopkOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const KNOBS: [&str; 4] = [
    ivmf_env::PREFETCH,
    ivmf_env::SNAPSHOT_DIR,
    ivmf_env::SPARSE_THRESHOLD,
    ivmf_env::TOPK_EIGEN,
];

/// Clears [`KNOBS`] for the test's duration and restores their previous
/// values on drop (also when an assertion panics).
struct EnvGuard(Vec<(&'static str, Option<String>)>);

impl EnvGuard {
    fn clear() -> EnvGuard {
        let saved = KNOBS.iter().map(|&n| (n, std::env::var(n).ok())).collect();
        for n in KNOBS {
            std::env::remove_var(n);
        }
        EnvGuard(saved)
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for (name, value) in &self.0 {
            match value {
                Some(v) => std::env::set_var(name, v),
                None => std::env::remove_var(name),
            }
        }
    }
}

#[test]
fn entry_kinds_keep_their_pins_under_every_knob_combination() {
    let _env = EnvGuard::clear();
    let root = std::env::temp_dir().join(format!("ivmf_knob_sweep_{}", std::process::id()));
    for prefetch in ["0", "1", "2"] {
        std::env::set_var(ivmf_env::PREFETCH, prefetch);
        for snapshots in [false, true] {
            let dir = root.join(format!("prefetch_{prefetch}"));
            if snapshots {
                std::env::set_var(ivmf_env::SNAPSHOT_DIR, &dir);
            } else {
                std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
            }
            entry_kinds::check_every_entry_kind();
            if snapshots {
                // The table's sessions saved snapshots, and a new session
                // over the fixture starts warm from them.
                let (m, _) = entry_kinds::entry_kind_fixture();
                let mut session = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
                session.interval_gram().unwrap();
                let context = format!("IVMF_PREFETCH={prefetch}, snapshots in {dir:?}");
                assert_eq!(session.cache().misses(), 0, "{context}: not restored");
                assert_eq!(session.cache().hits(), 1, "{context}: not restored");
            }
        }
    }
    std::env::remove_var(ivmf_env::PREFETCH);
    std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
    std::env::set_var(ivmf_env::SPARSE_THRESHOLD, "1.0");
    std::env::set_var(ivmf_env::TOPK_EIGEN, "forced");
    entry_kinds::check_every_entry_kind();

    let (m, _) = entry_kinds::entry_kind_fixture();
    let mut session = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
    session.interval_gram().unwrap();
    let mut snapshot = Vec::new();
    session.write_snapshot(&mut snapshot).unwrap();
    let csr_tag = b"\nsparseintervalgram ";
    assert!(
        !snapshot.windows(csr_tag.len()).any(|w| w == csr_tag),
        "a two-thirds-dense input took the CSR Gram kernel"
    );

    let a = symmetric_matrix(&mut SmallRng::seed_from_u64(25), 120, -2.0, 2.0);
    assert!(!topk_profitable(120, 20));
    let (dense, report) = sym_eigen_topk_report(&a, 20, &TopkOptions::default()).unwrap();
    assert!(report.used_dense);
    let eig = sym_eigen_topk(&a, 20).unwrap();
    assert_eq!(eig.eigenvalues, dense.eigenvalues, "not the dense solve");
    assert_eq!(eig.eigenvectors, dense.eigenvectors, "not the dense solve");
    std::fs::remove_dir_all(&root).ok();
}
