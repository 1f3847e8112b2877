//! The entry-kind table of `tests/support/entry_kinds.rs` in every
//! combination of the four run settings: threads {1, 2, 3} × prefetch
//! {0, 1, 2} × snapshots {off, a fresh directory} × exact interval
//! {off, on}. Each cell runs in a [`Settings::scope`]; nothing is set in
//! the process environment, so the cells of the two flavours run as two
//! concurrent tests.
//!
//! - The pinned content ids hold in every cell (asserted by the table).
//! - With the default flavour, the pinned factor digests hold in every
//!   cell. With the exact envelope pinned, the factor bits agree across
//!   every thread count, prefetch depth and snapshot state.
//! - With snapshots on, later sessions of the table warm-restore what
//!   earlier ones saved on drop; the cell's directory then holds `.snap`
//!   files with the v3 magic, and a new session over the fixture restores
//!   its Gram with one hit and no miss.

#[path = "support/entry_kinds.rs"]
mod entry_kinds;
#[path = "support/temp_path.rs"]
mod temp_path;

use ivmf_core::{IsvdConfig, Pipeline};
use ivmf_env::Settings;
use temp_path::TempPath;

/// The snapshot file magic (format v3).
const SNAPSHOT_MAGIC: &[u8] = b"ivmfsn3\n";

/// Runs every cell of one interval flavour and returns the factor digests
/// each cell produced, with the cell's name.
fn sweep(exact_interval: bool) -> Vec<(String, (u64, u64))> {
    let mut digests = Vec::new();
    for threads in [1, 2, 3] {
        for prefetch in [0, 1, 2] {
            for snapshots in [false, true] {
                let dir = snapshots.then(|| TempPath::new("knob_sweep"));
                let settings = Settings {
                    threads,
                    prefetch,
                    exact_interval,
                    snapshot_dir: dir.as_ref().map(|d| d.to_path_buf()),
                };
                let cell = format!("{settings:?}");
                digests.push((
                    cell.clone(),
                    settings.scope(entry_kinds::entry_kind_digests),
                ));
                if let Some(dir) = &dir {
                    settings.scope(|| assert_warm_restart(dir, &cell));
                }
            }
        }
    }
    digests
}

/// The table's sessions saved v3 snapshots in `dir`, and a new session
/// over the fixture starts warm from them.
fn assert_warm_restart(dir: &TempPath, cell: &str) {
    let snaps: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .collect();
    assert!(!snaps.is_empty(), "{cell}: no snapshot was written");
    for snap in &snaps {
        let bytes = std::fs::read(snap).unwrap();
        assert!(
            bytes.starts_with(SNAPSHOT_MAGIC),
            "{cell}: {snap:?} does not begin with the v3 magic"
        );
    }
    let (m, _) = entry_kinds::entry_kind_fixture();
    let mut session = Pipeline::new(&m, IsvdConfig::new(4)).unwrap();
    session.interval_gram().unwrap();
    assert_eq!(session.cache().misses(), 0, "{cell}: not restored");
    assert_eq!(session.cache().hits(), 1, "{cell}: not restored");
}

#[test]
fn entry_kinds_keep_their_pins_under_every_knob_combination() {
    for (cell, digests) in sweep(false) {
        assert_eq!(digests, entry_kinds::DIGESTS, "{cell}: factor bits moved");
    }
}

#[test]
fn entry_kinds_agree_bitwise_in_every_exact_flavour_cell() {
    let cells = sweep(true);
    let (first_cell, first) = &cells[0];
    for (cell, digests) in &cells {
        assert_eq!(digests, first, "{cell} differs from {first_cell}");
    }
}
