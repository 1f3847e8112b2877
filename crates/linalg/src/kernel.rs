//! Packed, register-tiled GEBP-style matrix-multiplication kernel.
//!
//! This is the compute core behind [`Matrix::matmul`](crate::Matrix::matmul)
//! and the SYRK-style Gram products: a classic three-level GotoBLAS/BLIS
//! decomposition, written in safe Rust and sized so the innermost tile
//! autovectorizes for `f64`.
//!
//! ```text
//!               ┌ KC ┐                 NR
//!        ┌──────┬────┬─────┐      ┌───┬───┬───┐
//!        │      │    │     │      │ ▓ │   │   │  B panel (KC×m) packed into
//!    A   │      │ ▓▓ │     │  ·   ├───┼───┼───┤  NR-wide column strips,
//!        │      │    │     │      │   │   │   │  k-major inside a strip
//!        └──────┴────┴─────┘      └───┴───┴───┘
//!           MC×KC block packed
//!           into MR-tall row strips
//!
//!    microkernel: C[MR×NR] tile accumulated in registers over one KC block
//! ```
//!
//! * the **B panel** (`KC × m`) is packed once per K-block into NR-wide
//!   column strips so the microkernel streams it contiguously; one strip
//!   (`KC·NR·8 B` = 16 KiB) stays L1-resident while every A strip of the
//!   row block passes it,
//! * each worker packs its **A block** (`MC × KC`, ≈ 128 KiB, L2-resident)
//!   into MR-tall row strips — packing reads through a [`Src`] view, so
//!   transposed operands (`AᵀB`, `ABᵀ`, Gram products) pack without ever
//!   materializing the transpose,
//! * the **microkernel** keeps an MR×NR accumulator tile in registers
//!   (`6×8` doubles = twelve AVX2 vectors) and fuses with
//!   `mul_add` when the build enables FMA (see `.cargo/config.toml`,
//!   `target-cpu=native`).
//!
//! ## Determinism
//!
//! Every output element accumulates its inner-dimension terms in a fixed
//! global order — K-blocks ascending, `k` ascending inside each block —
//! that depends neither on the row-panel split across `IVMF_THREADS`
//! workers nor on the tile coordinates. Results are therefore bitwise
//! identical for every thread count (property-tested in `matrix.rs`).
//!
//! ## Scratch reuse
//!
//! Packing buffers are thread-local and grow monotonically. On the calling
//! thread — the B panel always, and the A panels for every product below
//! the parallel threshold — repeated products (ISVD / NMF iterations) stop
//! re-allocating after the first call; only the zero-padded tail lanes of
//! ragged strips are re-written. Pool workers are scoped per
//! `par_row_panels` call (one call per K-block), so *their* A buffers live
//! for one K-block: a ~`MC·KC·8 B` allocation amortized against the
//! ≥ `MATMUL_PAR_MIN_WORK` compute that triggered the parallel path.
//!
//! `BPACK` is never shrunk: it keeps the widest B panel the thread has
//! ever packed (`KC × m`, `m` rounded up to `NR`) for the life of the
//! thread. One product with an `n`-wide right operand — `W·Uᵀ` of a tall
//! pseudo-inverse, say — therefore pins an `n`-sized buffer on that
//! thread for good; callers that must stay within a bound independent of
//! `n` compute such products in column blocks
//! ([`crate::pinv::TallPinv::columns`]).

use std::cell::RefCell;

use crate::Matrix;

/// Register-tile height: rows of `C` produced per microkernel call.
pub(crate) const MR: usize = 6;
/// Register-tile width: columns of `C` produced per microkernel call.
pub(crate) const NR: usize = 8;
/// Inner-dimension block depth shared by the packed A and B panels.
pub(crate) const KC: usize = 256;
/// Rows of `A` packed per block (the L2-resident `MC × KC` panel).
pub(crate) const MC: usize = 64;

thread_local! {
    static BPACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static APACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Read-only element view an operand is packed through: the plain matrix or
/// its transpose, resolved at monomorphization time so packing loops inline
/// to direct loads.
pub(crate) trait Src: Sync {
    /// Logical row count of the viewed operand.
    fn rows(&self) -> usize;
    /// Logical column count of the viewed operand.
    fn cols(&self) -> usize;
    /// Logical element `(i, j)` of the viewed operand.
    fn get(&self, i: usize, j: usize) -> f64;
}

/// Columns `offset..offset + width` of the matrix as stored, read in
/// place: the whole matrix ([`Plain::of`]) or a column block of it
/// ([`Plain::window`], a left operand's block with no copy).
pub(crate) struct Plain<'a> {
    m: &'a Matrix,
    offset: usize,
    width: usize,
}

impl<'a> Plain<'a> {
    /// The whole matrix.
    pub fn of(m: &'a Matrix) -> Self {
        Self::window(m, 0, m.cols())
    }

    /// Columns `offset..offset + width`.
    pub fn window(m: &'a Matrix, offset: usize, width: usize) -> Self {
        debug_assert!(offset + width <= m.cols());
        Plain { m, offset, width }
    }
}

impl Src for Plain<'_> {
    #[inline(always)]
    fn rows(&self) -> usize {
        self.m.rows()
    }
    #[inline(always)]
    fn cols(&self) -> usize {
        self.width
    }
    #[inline(always)]
    fn get(&self, i: usize, j: usize) -> f64 {
        self.m.as_slice()[i * self.m.cols() + self.offset + j]
    }
}

/// The transpose view: element `(i, j)` reads `(j, i)` of the backing
/// matrix.
pub(crate) struct Trans<'a>(pub &'a Matrix);

impl Src for Trans<'_> {
    #[inline(always)]
    fn rows(&self) -> usize {
        self.0.cols()
    }
    #[inline(always)]
    fn cols(&self) -> usize {
        self.0.rows()
    }
    #[inline(always)]
    fn get(&self, i: usize, j: usize) -> f64 {
        self.0.as_slice()[j * self.0.cols() + i]
    }
}

/// Fused multiply-add when the target has FMA, plain `mul`+`add` otherwise
/// (an unconditional `f64::mul_add` would fall back to a libm call and lose
/// an order of magnitude on non-FMA builds). Shared with the sparse CSR
/// kernels, which must reproduce the packed kernel's per-term arithmetic
/// bit for bit.
#[inline(always)]
pub(crate) fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Packs `rhs` rows `k0..k0+kc` into NR-wide column strips: strip `s` holds
/// columns `s·NR ..`, k-major (`buf[(s·kc + k)·NR + j]`), the ragged tail
/// strip zero-padded so the microkernel always runs full width.
fn pack_rhs<R: Src>(rhs: &R, k0: usize, kc: usize, buf: &mut Vec<f64>) {
    let m = rhs.cols();
    let strips = m.div_ceil(NR);
    let needed = strips * kc * NR;
    if buf.len() < needed {
        buf.resize(needed, 0.0);
    }
    for s in 0..strips {
        let j0 = s * NR;
        let w = NR.min(m - j0);
        let base = s * kc * NR;
        for k in 0..kc {
            let dst = &mut buf[base + k * NR..base + (k + 1) * NR];
            for (jj, d) in dst[..w].iter_mut().enumerate() {
                *d = rhs.get(k0 + k, j0 + jj);
            }
            for d in dst[w..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// Packs `lhs` rows `r0..r0+rc` over the K-block `k0..k0+kc` into MR-tall
/// row strips, k-major (`buf[(s·kc + k)·MR + i]`), zero-padding the ragged
/// tail strip.
fn pack_lhs<L: Src>(lhs: &L, r0: usize, rc: usize, k0: usize, kc: usize, buf: &mut Vec<f64>) {
    let strips = rc.div_ceil(MR);
    let needed = strips * kc * MR;
    if buf.len() < needed {
        buf.resize(needed, 0.0);
    }
    for s in 0..strips {
        let i0 = r0 + s * MR;
        let h = MR.min(r0 + rc - i0);
        let base = s * kc * MR;
        for k in 0..kc {
            let dst = &mut buf[base + k * MR..base + (k + 1) * MR];
            for (ii, d) in dst[..h].iter_mut().enumerate() {
                *d = lhs.get(i0 + ii, k0 + k);
            }
            for d in dst[h..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// The MR×NR register-tile microkernel: `acc += Astrip · Bstrip` over one
/// packed K-block. `k` ascends, so every accumulator element sees a fixed
/// addition order.
#[inline(always)]
fn microkernel(kc: usize, a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        let av: &[f64; MR] = av.try_into().expect("chunk is MR wide");
        let bv: &[f64; NR] = bv.try_into().expect("chunk is NR wide");
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i][j] = fmadd(ai, bv[j], acc[i][j]);
            }
        }
    }
}

/// Computes one contiguous panel of output rows for one K-block:
/// `panel += lhs[first_row.., k-block] · rhs[k-block, :]` (the B panel
/// already packed by the caller).
///
/// With `skip_below_diag` set, tiles lying strictly below the main diagonal
/// of the *global* output are skipped — the SYRK path computes only the
/// upper triangle (plus diagonal-crossing tiles) and the caller mirrors.
#[allow(clippy::too_many_arguments)]
fn process_panel<L: Src>(
    lhs: &L,
    bpack: &[f64],
    k0: usize,
    kc: usize,
    first_row: usize,
    panel: &mut [f64],
    m: usize,
    skip_below_diag: bool,
    apack: &mut Vec<f64>,
) {
    let rows = panel.len() / m;
    let bstrips = m.div_ceil(NR);
    let mut r = 0;
    while r < rows {
        let rc = MC.min(rows - r);
        pack_lhs(lhs, first_row + r, rc, k0, kc, apack);
        let astrips = rc.div_ceil(MR);
        for sb in 0..bstrips {
            let j0 = sb * NR;
            let w = NR.min(m - j0);
            let bstrip = &bpack[sb * kc * NR..(sb + 1) * kc * NR];
            for sa in 0..astrips {
                let gi0 = first_row + r + sa * MR;
                if skip_below_diag && j0 + NR <= gi0 {
                    continue; // whole tile strictly below the diagonal
                }
                let h = MR.min(rc - sa * MR);
                let astrip = &apack[sa * kc * MR..(sa + 1) * kc * MR];
                let mut acc = [[0.0f64; NR]; MR];
                microkernel(kc, astrip, bstrip, &mut acc);
                for (ii, acc_row) in acc.iter().enumerate().take(h) {
                    let row = r + sa * MR + ii;
                    let dst = &mut panel[row * m + j0..row * m + j0 + w];
                    for (d, &v) in dst.iter_mut().zip(&acc_row[..w]) {
                        *d += v;
                    }
                }
            }
        }
        r += rc;
    }
}

/// Packed GEBP product `out += lhs · rhs` over [`Src`] views, with the
/// output row panels split across `threads` workers
/// ([`ivmf_par::par_row_panels`]).
///
/// `out` must be zero-initialized by the caller (the kernel accumulates).
/// With `skip_below_diag` the strictly-lower-triangular tiles are skipped
/// for symmetric (SYRK) outputs; the caller mirrors the upper triangle.
pub(crate) fn gemm_into<L: Src, R: Src>(
    lhs: &L,
    rhs: &R,
    out: &mut Matrix,
    threads: usize,
    skip_below_diag: bool,
) {
    let (n, m) = out.shape();
    let kdim = lhs.cols();
    debug_assert_eq!(lhs.rows(), n);
    debug_assert_eq!(rhs.rows(), kdim);
    debug_assert_eq!(rhs.cols(), m);
    if n == 0 || m == 0 || kdim == 0 {
        return;
    }
    BPACK.with(|bcell| {
        let mut bpack = bcell.borrow_mut();
        let mut k0 = 0;
        while k0 < kdim {
            let kc = KC.min(kdim - k0);
            pack_rhs(rhs, k0, kc, &mut bpack);
            let bp: &[f64] = &bpack;
            ivmf_par::par_row_panels(out.as_mut_slice(), m, threads, |first_row, panel| {
                APACK.with(|acell| {
                    let mut apack = acell.borrow_mut();
                    process_panel(
                        lhs,
                        bp,
                        k0,
                        kc,
                        first_row,
                        panel,
                        m,
                        skip_below_diag,
                        &mut apack,
                    );
                });
            });
            k0 += kc;
        }
    });
}

/// Mirrors the upper triangle of a square matrix into its lower triangle
/// (the final step of the SYRK Gram kernels).
pub(crate) fn mirror_upper(c: &mut Matrix) {
    let n = c.rows();
    debug_assert!(c.is_square());
    for i in 1..n {
        for j in 0..i {
            c[(i, j)] = c[(j, i)];
        }
    }
}
