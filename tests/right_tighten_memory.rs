//! Allocation guard for ISVD4's right-factor tightening on a lazy CSR
//! session.
//!
//! The stage builds the projector `Σ⁻¹ · pinv(mid U†)` in row blocks
//! inside the streamed reduction, so nothing it allocates grows with the
//! row count `n`. Once ISVD3 has cached the aligned solve, the stage is
//! run on its own ([`Pipeline::right_tighten`]); the guard asserts that
//! its peak live heap exceeds its starting point by less than one
//! `n × r` `f64` matrix. Materializing `mid(U†)`, the pseudo-inverse
//! (with its SVD left factor) or the projector would each cost a full
//! `n × r`. Nothing is credited: the stage's own output is `m × r`.
//!
//! Live and peak bytes come from a counting global allocator (std only).
//! This binary holds this one test, so nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ivmf_core::{IsvdAlgorithm, IsvdConfig, Pipeline};
use ivmf_data::stream::{CsrShardReader, CsrShardWriter};
use ivmf_data::synthetic::{generate_power_law, PowerLawConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Bytes currently allocated, and the most ever allocated at once.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their peak.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose allocations therefore meet the `GlobalAlloc` contract; the
// counters are atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, since
        // every allocation of this allocator does.
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is passed through.
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 60_000;
const COLS: usize = 64;
const RANK: usize = 8;
const SHARD_ROWS: usize = 4096;

fn tmp_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "ivmf_right_tighten_memory_{}.ivs",
        std::process::id()
    ))
}

#[test]
fn isvd4_right_tighten_allocates_nothing_that_grows_with_rows() {
    // Auto-snapshots would encode the whole stage cache (`U†` included)
    // after the run; this guard measures the decomposition alone.
    std::env::remove_var(ivmf_env::SNAPSHOT_DIR);
    let path = tmp_path();
    let mut rng = SmallRng::seed_from_u64(19);
    let csr = generate_power_law(
        &PowerLawConfig::ratings_like(ROWS, COLS).with_nnz_per_row(8),
        &mut rng,
    );
    let mut writer = CsrShardWriter::create(&path, ROWS, COLS).unwrap();
    for start in (0..ROWS).step_by(SHARD_ROWS) {
        let shard = csr
            .row_slice(start, (start + SHARD_ROWS).min(ROWS))
            .unwrap();
        writer.push_shard(&shard).unwrap();
    }
    writer.finish().unwrap();
    drop(csr);

    let reader = CsrShardReader::open(&path, SHARD_ROWS).unwrap();
    let mut session = Pipeline::new_streaming_csr(Box::new(reader), IsvdConfig::new(RANK)).unwrap();
    session.run(IsvdAlgorithm::Isvd3).unwrap();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let tightened = session.right_tighten().unwrap();
    let peak = PEAK.load(Ordering::SeqCst);
    std::fs::remove_file(&path).ok();

    assert_eq!(tightened.0.shape(), (COLS, RANK));
    let tall = ROWS * RANK * std::mem::size_of::<f64>();
    let transient = peak - before;
    assert!(
        transient < tall,
        "the right tightening peaked {transient} bytes above its start; \
         one {ROWS} x {RANK} f64 matrix is {tall} bytes"
    );
}
