//! Ceiling probes: what one core of this machine can do at best, so each
//! layer's throughput can be stated as a fraction of it.

use std::hint::black_box;
use std::time::Instant;

/// Independent accumulators: enough vector registers' worth to cover the
/// FMA latency on both FMA ports of a current x86 core, at whatever vector
/// width the compiler picks for this target (the width the workspace's own
/// kernels get).
const FMA_ACCUMULATORS: usize = 96;

/// Result of the single-thread peak-FMA loop.
#[derive(Debug, Clone, Copy)]
pub struct FmaCeiling {
    pub gflops: f64,
    /// Computed flops of one repetition (2 per fused multiply-add).
    pub flops: f64,
}

#[inline(never)]
fn fma_loop(iters: usize, x: f64, y: f64) -> [f64; FMA_ACCUMULATORS] {
    let mut acc = [0.0f64; FMA_ACCUMULATORS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, y);
        }
    }
    acc
}

/// Best of `reps` repetitions of a register-resident fused-multiply-add
/// loop of `iters` iterations on the calling thread.
pub fn fma_ceiling(iters: usize, reps: usize) -> FmaCeiling {
    let flops = (2 * FMA_ACCUMULATORS * iters) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let acc = fma_loop(black_box(iters), black_box(1.000_000_1), black_box(1e-9));
        best = best.min(start.elapsed().as_secs_f64());
        black_box(acc);
    }
    FmaCeiling {
        gflops: flops / best / 1e9,
        flops,
    }
}

/// Result of the STREAM-style triad.
#[derive(Debug, Clone, Copy)]
pub struct TriadCeiling {
    pub gib_per_s: f64,
    /// Elements per array.
    pub elements: usize,
    /// Footprint of the three arrays.
    pub array_bytes: usize,
    /// Computed bytes moved per pass (three 8-byte streams per element,
    /// no write-allocate traffic counted, as STREAM counts).
    pub bytes_per_pass: f64,
}

/// Best of `reps` passes of `a[i] = b[i] + s·c[i]` over three arrays of
/// `total_bytes` together.
pub fn triad_ceiling(total_bytes: usize, reps: usize) -> TriadCeiling {
    let n = (total_bytes / 24).max(1);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(2) {
        let start = Instant::now();
        for ((ai, &bi), &ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    let bytes = 24.0 * n as f64;
    TriadCeiling {
        gib_per_s: bytes / best / crate::ledger::GIB,
        elements: n,
        array_bytes: 24 * n,
        bytes_per_pass: bytes,
    }
}
