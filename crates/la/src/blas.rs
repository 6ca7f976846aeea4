//! BLAS-like dense kernels (level 1/2/3) on [`Matrix`].
//!
//! The level-3 kernels (`gemm`, `syrk_lower`, `trsm`) are cache-blocked,
//! register-tiled implementations in the BLIS/GotoBLAS style: operand panels
//! are packed into contiguous buffers held in a reusable [`PackBuffer`]
//! workspace, and the innermost computation is an `MR × NR` micro-kernel
//! written so LLVM auto-vectorizes it. Small problems (all three operands
//! comfortably cache-resident) skip the packing machinery and run the plain
//! loops retained in [`mod@reference`], which also serve as the ground truth for
//! the parity test-suites and the `kernel_bench` before/after comparison.
//!
//! The blocking scheme and its performance model are documented in
//! `docs/performance.md` at the repository root.

use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Once;

/// Transposition flag for level-3 kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Which triangle of a triangular operand is referenced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Triangle {
    Lower,
    Upper,
}

/// Side of a triangular solve (`AX = B` vs `XA = B`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x` for slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm of a slice.
#[inline]
pub fn nrm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// General matrix-vector product `y = alpha * op(A) x + beta * y`.
pub fn gemv(trans: Trans, alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n) = a.shape();
    match trans {
        Trans::No => {
            assert_eq!(x.len(), n, "gemv: x length mismatch");
            assert_eq!(y.len(), m, "gemv: y length mismatch");
            for yi in y.iter_mut() {
                *yi *= beta;
            }
            for j in 0..n {
                let xj = alpha * x[j];
                if xj != 0.0 {
                    axpy(xj, a.col(j), y);
                }
            }
        }
        Trans::Yes => {
            assert_eq!(x.len(), m, "gemv^T: x length mismatch");
            assert_eq!(y.len(), n, "gemv^T: y length mismatch");
            for (j, yj) in y.iter_mut().enumerate() {
                *yj = beta * *yj + alpha * dot(a.col(j), x);
            }
        }
    }
}

/// Convenience: `A x` as a new vector.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    gemv(Trans::No, 1.0, a, x, 0.0, &mut y);
    y
}

/// Convenience: `A^T x` as a new vector.
pub fn matvec_t(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.ncols()];
    gemv(Trans::Yes, 1.0, a, x, 0.0, &mut y);
    y
}

// ---------------------------------------------------------------------------
// Cache-blocked level-3 engine.
// ---------------------------------------------------------------------------

/// Widest micro-tile rows any tier uses (the AVX-512 tile is 16×8); the
/// shared stack accumulator is sized for it, narrower tiers use a prefix.
const MAX_MR: usize = 16;
/// Widest micro-tile columns any tier uses.
const MAX_NR: usize = 8;
/// Length of the stack accumulator shared by every micro-kernel tier.
const ACC_LEN: usize = MAX_MR * MAX_NR;
/// Block size for the triangular kernels (`trsm` diagonal blocks, `potrf`
/// panels).
pub(crate) const TB: usize = 64;
/// Problems below this flop count (`m·n·k`) skip packing entirely: all three
/// operands are cache-resident and the plain loops win on overhead.
const NAIVE_MAX_FLOPS: usize = 32 * 32 * 32;

/// Instruction-set tier of the innermost register tile, selected at runtime.
///
/// The process-wide default is the widest tier the CPU supports;
/// `DALIA_KERNEL_TIER={portable,avx2,avx512}` forces a specific tier (falling
/// back, with a stderr warning, to the best supported tier when the requested
/// one is unavailable), and [`set_kernel_tier`] overrides it from code. All
/// tiers compute the same per-element operation sequence up to FMA
/// contraction (last-ulp differences), and every supported tier is pinned
/// against the reference loops by the forced-dispatch parity wall in
/// `crates/la/tests/proptest_kernels.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Auto-vectorized portable Rust, 8×4 tile — the only tier off x86-64.
    Portable,
    /// AVX2+FMA intrinsics, 8×4 tile (two 4-wide accumulator chains per column).
    Avx2,
    /// AVX-512F intrinsics, 16×8 tile (two 8-wide accumulator chains per column).
    Avx512,
}

impl KernelTier {
    /// Every tier, narrowest first.
    pub const ALL: [KernelTier; 3] = [KernelTier::Portable, KernelTier::Avx2, KernelTier::Avx512];

    /// Stable lowercase name: the `DALIA_KERNEL_TIER` value and the
    /// autotuner cache-file key (see [`crate::tune`]).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// Parse a tier name as accepted by `DALIA_KERNEL_TIER` (case-insensitive).
    pub fn from_name(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "portable" => Some(KernelTier::Portable),
            "avx2" => Some(KernelTier::Avx2),
            "avx512" => Some(KernelTier::Avx512),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The tiers the running CPU supports, narrowest first.
pub fn supported_kernel_tiers() -> Vec<KernelTier> {
    KernelTier::ALL.into_iter().filter(|t| t.is_supported()).collect()
}

fn best_supported_tier() -> KernelTier {
    if KernelTier::Avx512.is_supported() {
        KernelTier::Avx512
    } else if KernelTier::Avx2.is_supported() {
        KernelTier::Avx2
    } else {
        KernelTier::Portable
    }
}

/// Resolved micro-kernel tier (`KernelTier as u8`); `u8::MAX` = unresolved.
static KERNEL_TIER: AtomicU8 = AtomicU8::new(u8::MAX);

/// The micro-kernel tier every blocked kernel currently dispatches to.
///
/// Resolved on first use: the `DALIA_KERNEL_TIER` override if set and
/// supported, else the widest supported tier.
pub fn kernel_tier() -> KernelTier {
    match KERNEL_TIER.load(Ordering::Relaxed) {
        0 => KernelTier::Portable,
        1 => KernelTier::Avx2,
        2 => KernelTier::Avx512,
        _ => {
            let tier = resolve_tier_from_env();
            KERNEL_TIER.store(tier as u8, Ordering::Relaxed);
            tier
        }
    }
}

fn resolve_tier_from_env() -> KernelTier {
    let best = best_supported_tier();
    match std::env::var("DALIA_KERNEL_TIER") {
        Ok(v) if !v.trim().is_empty() => match KernelTier::from_name(&v) {
            Some(t) if t.is_supported() => t,
            Some(t) => {
                eprintln!(
                    "dalia-la: DALIA_KERNEL_TIER={} is not supported on this CPU; using {}",
                    t.name(),
                    best.name()
                );
                best
            }
            None => {
                eprintln!(
                    "dalia-la: unknown DALIA_KERNEL_TIER value {v:?} \
                     (expected portable|avx2|avx512); using {}",
                    best.name()
                );
                best
            }
        },
        _ => best,
    }
}

/// Force the micro-kernel tier for the whole process. Returns `false` (and
/// changes nothing) when the CPU does not support `tier` — which is how the
/// forced-dispatch parity tests self-skip unsupported tiers.
pub fn set_kernel_tier(tier: KernelTier) -> bool {
    if !tier.is_supported() {
        return false;
    }
    KERNEL_TIER.store(tier as u8, Ordering::Relaxed);
    true
}

/// Runtime cache-blocking parameters, seeded lazily from the persisted
/// autotuner cache (see [`crate::tune`]); `0` = unseeded.
static BLOCK_MC: AtomicUsize = AtomicUsize::new(0);
static BLOCK_KC: AtomicUsize = AtomicUsize::new(0);
static BLOCK_NC: AtomicUsize = AtomicUsize::new(0);
static BLOCK_SEED: Once = Once::new();

/// Current `(MC, KC, NC)` cache blocking of the packed engine: MC rows of
/// packed op(A) panel (sized for L2), KC panel depth, NC columns of packed
/// op(B) panel (sized for L3).
///
/// The first call seeds the values for the active [`kernel_tier`] from the
/// per-host autotuner cache file (see [`crate::tune`]); a missing, corrupt,
/// or stale-schema cache falls back to the built-in defaults.
/// [`set_blocking`] overrides the values for the whole process.
pub fn blocking() -> (usize, usize, usize) {
    BLOCK_SEED.call_once(|| {
        let cfg = crate::tune::initial_config(kernel_tier());
        store_blocking(cfg.mc, cfg.kc, cfg.nc);
    });
    (
        BLOCK_MC.load(Ordering::Relaxed),
        BLOCK_KC.load(Ordering::Relaxed),
        BLOCK_NC.load(Ordering::Relaxed),
    )
}

/// Override the `(MC, KC, NC)` cache blocking for the whole process; values
/// are clamped to `[32, 2048]`. Used by the autotuner sweep and the benches.
pub fn set_blocking(mc: usize, kc: usize, nc: usize) {
    BLOCK_SEED.call_once(|| {});
    store_blocking(mc, kc, nc);
}

/// Clamp a candidate `(MC, KC, NC)` triple to the sane range `[32, 2048]`.
fn clamp_blocking(mc: usize, kc: usize, nc: usize) -> (usize, usize, usize) {
    (mc.clamp(32, 2048), kc.clamp(32, 2048), nc.clamp(32, 2048))
}

fn store_blocking(mc: usize, kc: usize, nc: usize) {
    let (mc, kc, nc) = clamp_blocking(mc, kc, nc);
    BLOCK_MC.store(mc, Ordering::Relaxed);
    BLOCK_KC.store(kc, Ordering::Relaxed);
    BLOCK_NC.store(nc, Ordering::Relaxed);
}

/// Reusable packing workspace for the blocked level-3 kernels.
///
/// Holds the contiguous buffers the blocked `gemm` / `syrk` / `trsm` /
/// `potrf` kernels pack operand panels into, so a hot loop that calls them
/// through the `*_with` entry points allocates nothing after the first
/// factorization warms the buffers up. The stateful solver sessions in
/// `dalia-core` own one `PackBuffer` per solver and thread it through
/// `serinv`'s `pobtaf_with` / `d_pobtas` / `d_pobtasi`. Every kernel
/// call re-packs the panels it reads.
#[derive(Debug, Default)]
pub struct PackBuffer {
    /// Packed `MC × KC` panel of op(A), micro-panels of `MR` rows.
    a_pack: Vec<f64>,
    /// Packed `KC × NC` panel of op(B), micro-panels of `NR` columns.
    b_pack: Vec<f64>,
    /// Dense scratch for triangular-block staging (trsm right-hand-side
    /// panels, potrf diagonal blocks).
    pub(crate) scratch: Vec<f64>,
}

impl PackBuffer {
    /// Empty workspace; buffers are grown lazily by the first blocked call.
    pub fn new() -> Self {
        Self::default()
    }

    // No-op kept only because `perfbench/` calls it; goes with the next benchmark change.
    #[doc(hidden)]
    pub fn enable_panel_reuse(&mut self, _enabled: bool) {}

    // No-op kept only because `perfbench/` calls it; goes with the next benchmark change.
    #[doc(hidden)]
    pub fn invalidate_panels(&mut self) {}
}

/// Read-only strided view of `op(X)` for a column-major operand: element
/// `(i, j)` lives at `data[off + i * rs + j * cs]`. A transpose is just a
/// stride swap, which lets one packing routine serve all `Trans` cases.
#[derive(Clone, Copy)]
pub(crate) struct StridedRef<'a> {
    pub(crate) data: &'a [f64],
    pub(crate) off: usize,
    pub(crate) rs: usize,
    pub(crate) cs: usize,
}

impl<'a> StridedRef<'a> {
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.off + i * self.rs + j * self.cs]
    }

    /// View shifted down by `di` rows and right by `dj` columns.
    fn shifted(mut self, di: usize, dj: usize) -> Self {
        self.off += di * self.rs + dj * self.cs;
        self
    }

    /// Transposed view (stride swap).
    fn transposed(mut self) -> Self {
        std::mem::swap(&mut self.rs, &mut self.cs);
        self
    }
}

/// Strided view of `op(a)`.
fn op_ref(a: &Matrix, trans: Trans) -> StridedRef<'_> {
    let ld = a.nrows();
    match trans {
        Trans::No => StridedRef { data: a.as_slice(), off: 0, rs: 1, cs: ld },
        Trans::Yes => StridedRef { data: a.as_slice(), off: 0, rs: ld, cs: 1 },
    }
}

/// Pack the `kc × nc` panel of `src` starting at `(p0, j0)` into `buf` as
/// depth-major micro-panels of `tile` columns (`buf[pj*tile*kc + p*tile + c]`),
/// zero-padded to a multiple of `tile` columns so the micro-kernel never
/// needs an edge case. The A side packs through a transposed view — an A
/// micro-panel of `MR` rows is exactly a B-style micro-panel of `MR` columns
/// of op(A)ᵀ — so this one routine serves both operands of every kernel.
fn pack_panel(
    src: StridedRef<'_>,
    p0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
    tile: usize,
    buf: &mut Vec<f64>,
) {
    let panels = nc.div_ceil(tile);
    buf.clear();
    buf.resize(panels * tile * kc, 0.0);
    for pj in 0..panels {
        let jr = pj * tile;
        let cols = tile.min(nc - jr);
        let dst = &mut buf[pj * tile * kc..(pj + 1) * tile * kc];
        for p in 0..kc {
            for c in 0..cols {
                dst[p * tile + c] = src.at(p0 + p, j0 + jr + c);
            }
        }
    }
}

/// One register-tile instantiation: computes an `MR × NR` block of C into
/// the shared stack accumulator (`acc[j * MR + i]`), consuming zero-padded
/// packed panels. Each [`KernelTier`] maps to one implementor.
trait MicroTile {
    /// Micro-tile rows (A-panel column-group width after transposition).
    const MR: usize;
    /// Micro-tile columns (B-panel column-group width).
    const NR: usize;
    fn kernel(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64; ACC_LEN]);
}

/// The register tile: `acc[j*MR + i] += sum_p apanel[p*MR + i] * bpanel[p*NR + j]`.
///
/// Both panels are contiguous and zero-padded, so the loop body is
/// branch-free with a fixed trip count over `MR × NR` — exactly the shape
/// LLVM turns into broadcast-and-multiply-accumulate vector code.
#[inline(always)]
fn micro_kernel_body<const MR: usize, const NR: usize>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    acc: &mut [f64; ACC_LEN],
) {
    debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    for (ap, bp) in apanel.chunks_exact(MR).take(kc).zip(bpanel.chunks_exact(NR)) {
        for j in 0..NR {
            let bj = bp[j];
            for i in 0..MR {
                acc[j * MR + i] += ap[i] * bj;
            }
        }
    }
}

/// AVX2+FMA instantiation of the micro-kernel: eight 4-wide fused
/// multiply-add accumulator chains (`MR/4 × NR` ymm registers), B elements
/// broadcast from the packed panel. Numerically this fuses each
/// multiply-add (no intermediate rounding), so results can differ from the
/// portable kernel in the last ulp — well inside every tolerance the solver
/// stack uses, and deterministic on any given machine.
///
/// # Safety
/// Must only be called when the running CPU supports AVX2 and FMA (the tier
/// dispatch only selects [`Avx2Tile`] when [`KernelTier::is_supported`]
/// holds). The entry asserts keep every pointer dereference in bounds.
///
/// The workspace denies `unsafe_code`; the intrinsics micro-kernels and
/// their [`MicroTile`] callers are the single sanctioned exception:
/// `#[target_feature]` functions are inherently `unsafe` to declare and
/// call, and the FMA contraction requires explicit intrinsics.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_avx2(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64; ACC_LEN]) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 4;
    assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    let mut c: [__m256d; 2 * NR] = [_mm256_setzero_pd(); 2 * NR];
    let mut ap = apanel.as_ptr();
    let mut bp = bpanel.as_ptr();
    for _ in 0..kc {
        // SAFETY: the entry asserts bound ap/bp walks to kc*MR / kc*NR lanes.
        unsafe {
            let a0 = _mm256_loadu_pd(ap);
            let a1 = _mm256_loadu_pd(ap.add(4));
            for j in 0..NR {
                let bj = _mm256_broadcast_sd(&*bp.add(j));
                c[2 * j] = _mm256_fmadd_pd(a0, bj, c[2 * j]);
                c[2 * j + 1] = _mm256_fmadd_pd(a1, bj, c[2 * j + 1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
    }
    for j in 0..NR {
        // SAFETY: acc has ACC_LEN = 128 elements; j*MR + 8 <= 36 stays in bounds.
        unsafe {
            let dst = acc.as_mut_ptr().add(j * MR);
            _mm256_storeu_pd(dst, _mm256_add_pd(_mm256_loadu_pd(dst), c[2 * j]));
            _mm256_storeu_pd(dst.add(4), _mm256_add_pd(_mm256_loadu_pd(dst.add(4)), c[2 * j + 1]));
        }
    }
}

/// AVX-512F instantiation of the micro-kernel: a 16×8 register tile held in
/// sixteen zmm accumulators (two 8-wide fused multiply-add chains per B
/// column), B elements broadcast from the packed panel. Like the AVX2 kernel
/// this contracts each multiply-add, so it differs from the portable kernel
/// only in the last ulp.
///
/// # Safety
/// Must only be called when the running CPU supports AVX-512F (the tier
/// dispatch only selects [`Avx512Tile`] when [`KernelTier::is_supported`]
/// holds). The entry asserts keep every pointer dereference in bounds.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_avx512(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64; ACC_LEN]) {
    use std::arch::x86_64::*;
    const MR: usize = 16;
    const NR: usize = 8;
    assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    let mut c: [__m512d; 2 * NR] = [_mm512_setzero_pd(); 2 * NR];
    let mut ap = apanel.as_ptr();
    let mut bp = bpanel.as_ptr();
    for _ in 0..kc {
        // SAFETY: the entry asserts bound ap/bp walks to kc*MR / kc*NR lanes.
        unsafe {
            let a0 = _mm512_loadu_pd(ap);
            let a1 = _mm512_loadu_pd(ap.add(8));
            for j in 0..NR {
                let bj = _mm512_set1_pd(*bp.add(j));
                c[2 * j] = _mm512_fmadd_pd(a0, bj, c[2 * j]);
                c[2 * j + 1] = _mm512_fmadd_pd(a1, bj, c[2 * j + 1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
    }
    for j in 0..NR {
        // SAFETY: acc has ACC_LEN = 16 * 8 elements; j*MR + 16 <= 128.
        unsafe {
            let dst = acc.as_mut_ptr().add(j * MR);
            _mm512_storeu_pd(dst, _mm512_add_pd(_mm512_loadu_pd(dst), c[2 * j]));
            _mm512_storeu_pd(dst.add(8), _mm512_add_pd(_mm512_loadu_pd(dst.add(8)), c[2 * j + 1]));
        }
    }
}

/// Portable tier: the auto-vectorized generic body at the 8×4 shape.
struct PortableTile;

impl MicroTile for PortableTile {
    const MR: usize = 8;
    const NR: usize = 4;

    #[inline(always)]
    fn kernel(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64; ACC_LEN]) {
        micro_kernel_body::<8, 4>(kc, apanel, bpanel, acc);
    }
}

/// AVX2+FMA tier (8×4); off x86-64 it degrades to the portable body so the
/// dispatch match stays total.
struct Avx2Tile;

impl MicroTile for Avx2Tile {
    const MR: usize = 8;
    const NR: usize = 4;

    #[inline(always)]
    #[allow(unsafe_code)]
    fn kernel(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64; ACC_LEN]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier dispatch only selects Avx2Tile when
        // KernelTier::Avx2.is_supported() (AVX2 and FMA detected).
        unsafe {
            micro_kernel_avx2(kc, apanel, bpanel, acc)
        }
        #[cfg(not(target_arch = "x86_64"))]
        micro_kernel_body::<8, 4>(kc, apanel, bpanel, acc)
    }
}

/// AVX-512F tier (16×8); off x86-64 it degrades to the portable body.
struct Avx512Tile;

impl MicroTile for Avx512Tile {
    const MR: usize = 16;
    const NR: usize = 8;

    #[inline(always)]
    #[allow(unsafe_code)]
    fn kernel(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64; ACC_LEN]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier dispatch only selects Avx512Tile when
        // KernelTier::Avx512.is_supported() (AVX-512F detected).
        unsafe {
            micro_kernel_avx512(kc, apanel, bpanel, acc)
        }
        #[cfg(not(target_arch = "x86_64"))]
        micro_kernel_body::<16, 8>(kc, apanel, bpanel, acc)
    }
}

/// Blocked `C += alpha * A · B` on raw storage: `A` and `B` are strided views
/// (already op-adjusted), the destination element `(i, j)` lives at
/// `c[c_off + i + j * ldc]`. Scaling by beta is the caller's responsibility.
///
/// Dispatches once per call to the active [`KernelTier`]'s register tile;
/// the blocked engine itself is generic over the tile shape.
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: StridedRef<'_>,
    b: StridedRef<'_>,
    c: &mut [f64],
    c_off: usize,
    ldc: usize,
    pack: &mut PackBuffer,
) {
    match kernel_tier() {
        KernelTier::Portable => {
            gemm_packed_impl::<PortableTile>(m, n, k, alpha, a, b, c, c_off, ldc, pack)
        }
        KernelTier::Avx2 => {
            gemm_packed_impl::<Avx2Tile>(m, n, k, alpha, a, b, c, c_off, ldc, pack)
        }
        KernelTier::Avx512 => {
            gemm_packed_impl::<Avx512Tile>(m, n, k, alpha, a, b, c, c_off, ldc, pack)
        }
    }
}

/// The tile-generic blocked gemm engine behind [`gemm_packed`].
#[allow(clippy::too_many_arguments)]
fn gemm_packed_impl<T: MicroTile>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: StridedRef<'_>,
    b: StridedRef<'_>,
    c: &mut [f64],
    c_off: usize,
    ldc: usize,
    pack: &mut PackBuffer,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    let (mc_blk, kc_blk, nc_blk) = blocking();
    // A panels are packed column-major along k: the A micro-panel layout is
    // exactly the B layout applied to Aᵀ, so one packing routine serves both.
    let at = a.transposed();
    let PackBuffer { a_pack, b_pack, .. } = pack;
    for jc in (0..n).step_by(nc_blk) {
        let nc = nc_blk.min(n - jc);
        for pc in (0..k).step_by(kc_blk) {
            let kc = kc_blk.min(k - pc);
            pack_panel(b, pc, jc, kc, nc, T::NR, b_pack);
            let bpanel_all = &b_pack[..];
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                pack_panel(at, pc, ic, kc, mc, T::MR, a_pack);
                let apanel_all = &a_pack[..];
                for jr in (0..nc).step_by(T::NR) {
                    let nr_eff = T::NR.min(nc - jr);
                    let bpanel = &bpanel_all[(jr / T::NR) * T::NR * kc..];
                    for ir in (0..mc).step_by(T::MR) {
                        let mr_eff = T::MR.min(mc - ir);
                        let apanel = &apanel_all[(ir / T::MR) * T::MR * kc..];
                        let mut acc = [0.0f64; ACC_LEN];
                        T::kernel(kc, apanel, bpanel, &mut acc);
                        for j in 0..nr_eff {
                            let base = c_off + (jc + jr + j) * ldc + ic + ir;
                            for (ci, av) in
                                c[base..base + mr_eff].iter_mut().zip(&acc[j * T::MR..])
                            {
                                *ci += alpha * av;
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel trailing-update path.
// ---------------------------------------------------------------------------

/// Minimum problem volume (`m·n·k`) for the parallel trailing-update path:
/// below this the fork/steal overhead outweighs the extra cores. Engages at
/// roughly the 128³ reduced-system blocks of the distributed BTA solver.
const PAR_MIN_FLOPS: usize = 1 << 21;

/// Minimum columns of C per parallel leaf task.
const PAR_MIN_COLS: usize = 64;

thread_local! {
    /// Per-thread packing workspace for the parallel gemm leaves: every pool
    /// worker packs into its own buffers, so parallel tasks never contend.
    static PAR_PACK: std::cell::RefCell<PackBuffer> =
        std::cell::RefCell::new(PackBuffer::new());
}

/// Whether [`gemm_with`] should take the parallel column-split path.
fn use_parallel_gemm(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= PAR_MIN_FLOPS && n >= 2 * PAR_MIN_COLS && dalia_pool::current_num_threads() > 1
}

/// Parallel `C += alpha · op(A) op(B)`: the columns of C are split into
/// MAX_NR-aligned chunks executed as a fork-join tree on the work-stealing pool
/// (`dalia-pool`), each leaf running the sequential [`gemm_packed`] engine on
/// its disjoint column panel with a per-worker [`PackBuffer`].
///
/// Every element of C accumulates the exact same sequence of floating-point
/// operations as in a sequential [`gemm_packed`] call — column panels are
/// independent in the blocked engine, and the split points only regroup them
/// — so the result is **bitwise identical** to the single-threaded path (see
/// `parallel_gemm_is_bitwise_identical_to_sequential_packed`).
#[allow(clippy::too_many_arguments)]
fn gemm_packed_parallel(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: StridedRef<'_>,
    b: StridedRef<'_>,
    c: &mut [f64],
    ldc: usize,
) {
    let threads = dalia_pool::current_num_threads();
    // ~2 leaf tasks per worker, aligned to the widest tier's NR so every
    // tier's column grouping is preserved, never below the overhead floor.
    let chunk = n.div_ceil(threads * 2).next_multiple_of(MAX_NR).max(PAR_MIN_COLS);
    dalia_pool::install(|| split_columns(m, n, k, alpha, a, b, c, ldc, chunk));
}

/// Recursive MAX_NR-aligned halving of the C column range down to `chunk`.
#[allow(clippy::too_many_arguments)]
fn split_columns(
    m: usize,
    ncols: usize,
    k: usize,
    alpha: f64,
    a: StridedRef<'_>,
    b: StridedRef<'_>,
    c: &mut [f64],
    ldc: usize,
    chunk: usize,
) {
    if ncols <= chunk {
        PAR_PACK.with(|pack| {
            gemm_packed(m, ncols, k, alpha, a, b, c, 0, ldc, &mut pack.borrow_mut())
        });
        return;
    }
    let mid = (ncols / 2).next_multiple_of(MAX_NR);
    let (c_lo, c_hi) = c.split_at_mut(mid * ldc);
    let b_hi = b.shifted(0, mid);
    dalia_pool::join(
        || split_columns(m, mid, k, alpha, a, b, c_lo, ldc, chunk),
        || split_columns(m, ncols - mid, k, alpha, a, b_hi, c_hi, ldc, chunk),
    );
}

/// Apply the beta prefactor to a full dense C.
fn scale_matrix(beta: f64, c: &mut Matrix) {
    if beta == 1.0 {
        return;
    }
    if beta == 0.0 {
        c.fill_zero();
    } else {
        c.scale(beta);
    }
}

/// General matrix-matrix product `C = alpha * op(A) op(B) + beta * C`.
///
/// Large products are computed by the packed micro-kernel engine: panels of
/// `op(A)` / `op(B)` are copied into contiguous, zero-padded buffers and
/// consumed by an `MR × NR` register tile (see the module docs and
/// `docs/performance.md`); small products fall back to the plain loops in
/// [`mod@reference`]. All four transpose combinations are supported; in
/// particular `(Trans::Yes, Trans::Yes)` computes `C += alpha · AᵀBᵀ`
/// (equal to `alpha · (B A)ᵀ`), with `A` consumed along its rows and `B`
/// along its columns by the packing routines.
///
/// Products at reduced-system scale (`m·n·k ≥ 2²¹` with enough columns to
/// split) additionally fan their C column panels out across the
/// work-stealing pool; the parallel path is bitwise-identical to the
/// sequential one, so callers never observe thread-count-dependent results.
///
/// This entry point allocates a transient workspace for large inputs; hot
/// loops should hold a [`PackBuffer`] and call [`gemm_with`].
///
/// ```
/// use dalia_la::blas::{gemm, matmul, Trans};
/// use dalia_la::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
/// // C = 2·AᵀB + 1·C, starting from C = I.
/// let mut c = Matrix::identity(2);
/// gemm(Trans::Yes, Trans::No, 2.0, &a, &b, 1.0, &mut c);
/// let expected = &(&matmul(&a.transpose(), &b) * 2.0) + &Matrix::identity(2);
/// assert!(c.max_abs_diff(&expected) < 1e-14);
/// ```
pub fn gemm(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let mut pack = PackBuffer::new();
    gemm_with(&mut pack, trans_a, trans_b, alpha, a, b, beta, c);
}

/// [`gemm`] with an explicit, reusable packing workspace.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    pack: &mut PackBuffer,
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (am, an) = a.shape();
    let (bm, bn) = b.shape();
    let (opa_m, opa_k) = match trans_a {
        Trans::No => (am, an),
        Trans::Yes => (an, am),
    };
    let (opb_k, opb_n) = match trans_b {
        Trans::No => (bm, bn),
        Trans::Yes => (bn, bm),
    };
    assert_eq!(opa_k, opb_k, "gemm: inner dimension mismatch");
    assert_eq!(c.shape(), (opa_m, opb_n), "gemm: output shape mismatch");

    scale_matrix(beta, c);
    let (m, n, k) = (opa_m, opb_n, opa_k);
    if m * n * k < NAIVE_MAX_FLOPS {
        reference::gemm_acc(trans_a, trans_b, alpha, a, b, c);
        return;
    }
    let ldc = c.nrows();
    if use_parallel_gemm(m, n, k) {
        // Reduced-system-scale products split their C columns across the
        // work-stealing pool; bitwise-identical to the sequential engine.
        gemm_packed_parallel(
            m,
            n,
            k,
            alpha,
            op_ref(a, trans_a),
            op_ref(b, trans_b),
            c.as_mut_slice(),
            ldc,
        );
        return;
    }
    gemm_packed(
        m,
        n,
        k,
        alpha,
        op_ref(a, trans_a),
        op_ref(b, trans_b),
        c.as_mut_slice(),
        0,
        ldc,
        pack,
    );
}

/// `A * B` as a new matrix.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, &mut c);
    c
}

/// Blocked lower-triangle rank-k update on raw storage:
/// `C[lower] += alpha * S Sᵀ` where `S` is an `n × k` strided view and the
/// destination element `(i, j)` lives at `c[c_off + i + j * ldc]`. Only the
/// lower triangle of C is ever written: micro-tiles straddling the diagonal
/// clip their per-column store range, so no scratch staging is needed and
/// both operand panels are packed exactly as in [`gemm_packed`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn syrk_lower_packed(
    n: usize,
    k: usize,
    alpha: f64,
    s: StridedRef<'_>,
    c: &mut [f64],
    c_off: usize,
    ldc: usize,
    pack: &mut PackBuffer,
) {
    match kernel_tier() {
        KernelTier::Portable => {
            syrk_lower_packed_impl::<PortableTile>(n, k, alpha, s, c, c_off, ldc, pack)
        }
        KernelTier::Avx2 => {
            syrk_lower_packed_impl::<Avx2Tile>(n, k, alpha, s, c, c_off, ldc, pack)
        }
        KernelTier::Avx512 => {
            syrk_lower_packed_impl::<Avx512Tile>(n, k, alpha, s, c, c_off, ldc, pack)
        }
    }
}

/// The tile-generic engine behind [`syrk_lower_packed`]: a gemm over
/// `S · Sᵀ` that skips macro/micro tiles strictly above the diagonal and
/// clips the C stores of straddling tiles to `i >= j`.
#[allow(clippy::too_many_arguments)]
fn syrk_lower_packed_impl<T: MicroTile>(
    n: usize,
    k: usize,
    alpha: f64,
    s: StridedRef<'_>,
    c: &mut [f64],
    c_off: usize,
    ldc: usize,
    pack: &mut PackBuffer,
) {
    if n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    let (mc_blk, kc_blk, nc_blk) = blocking();
    // Both operands are views of S: B = Sᵀ directly, and the A-panel packing
    // consumes Aᵀ = Sᵀ too.
    let st = s.transposed();
    let PackBuffer { a_pack, b_pack, .. } = pack;
    for jc in (0..n).step_by(nc_blk) {
        let nc = nc_blk.min(n - jc);
        for pc in (0..k).step_by(kc_blk) {
            let kc = kc_blk.min(k - pc);
            pack_panel(st, pc, jc, kc, nc, T::NR, b_pack);
            let bpanel_all = &b_pack[..];
            for ic in (0..n).step_by(mc_blk) {
                let mc = mc_blk.min(n - ic);
                if ic + mc <= jc {
                    // Entire macro-tile strictly above the diagonal band.
                    continue;
                }
                pack_panel(st, pc, ic, kc, mc, T::MR, a_pack);
                let apanel_all = &a_pack[..];
                for jr in (0..nc).step_by(T::NR) {
                    let nr_eff = T::NR.min(nc - jr);
                    let bpanel = &bpanel_all[(jr / T::NR) * T::NR * kc..];
                    for ir in (0..mc).step_by(T::MR) {
                        let mr_eff = T::MR.min(mc - ir);
                        let gi0 = ic + ir;
                        if gi0 + mr_eff <= jc + jr {
                            // Micro-tile strictly above the diagonal.
                            continue;
                        }
                        let apanel = &apanel_all[(ir / T::MR) * T::MR * kc..];
                        let mut acc = [0.0f64; ACC_LEN];
                        T::kernel(kc, apanel, bpanel, &mut acc);
                        for j in 0..nr_eff {
                            let gj = jc + jr + j;
                            // Clip the store to rows i >= gj: the strict
                            // upper triangle of C must never be touched.
                            let lo = gj.saturating_sub(gi0);
                            if lo >= mr_eff {
                                continue;
                            }
                            let base = c_off + gj * ldc + gi0 + lo;
                            for (ci, av) in c[base..base + (mr_eff - lo)]
                                .iter_mut()
                                .zip(&acc[j * T::MR + lo..])
                            {
                                *ci += alpha * av;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Symmetric rank-k update restricted to the lower triangle:
/// `C := alpha * op(A) op(A)^T + beta * C` (only the lower triangle of C is
/// written). Large updates run through the blocked engine, small ones through
/// [`mod@reference`].
pub fn syrk_lower(trans: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    let mut pack = PackBuffer::new();
    syrk_lower_with(&mut pack, trans, alpha, a, beta, c);
}

/// [`syrk_lower`] with an explicit, reusable packing workspace.
pub fn syrk_lower_with(pack: &mut PackBuffer, trans: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    let (n, k) = match trans {
        Trans::No => (a.nrows(), a.ncols()),
        Trans::Yes => (a.ncols(), a.nrows()),
    };
    assert_eq!(c.shape(), (n, n), "syrk: output must be n x n");
    // Scale the lower triangle of C by beta.
    if beta != 1.0 {
        for j in 0..n {
            for v in &mut c.col_mut(j)[j..] {
                *v *= beta;
            }
        }
    }
    if n * n * k / 2 < NAIVE_MAX_FLOPS {
        reference::syrk_acc(trans, alpha, a, c);
        return;
    }
    let ldc = c.nrows();
    syrk_lower_packed(n, k, alpha, op_ref(a, trans), c.as_mut_slice(), 0, ldc, pack);
}

/// Full symmetric rank-k update (both triangles written), convenience wrapper.
pub fn syrk_full(trans: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    syrk_lower(trans, alpha, a, beta, c);
    c.mirror_lower();
}

/// [`syrk_full`] with an explicit, reusable packing workspace.
pub fn syrk_full_with(pack: &mut PackBuffer, trans: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    syrk_lower_with(pack, trans, alpha, a, beta, c);
    c.mirror_lower();
}

/// `dst_col += alpha * src_col` over the row range `rows` of two distinct
/// columns of `b` (used by the blocked right-side triangular solves).
fn axpy_cols(b: &mut Matrix, src: usize, dst: usize, rows: std::ops::Range<usize>, alpha: f64) {
    debug_assert_ne!(src, dst);
    let m = b.nrows();
    let data = b.as_mut_slice();
    if src < dst {
        let (lo, hi) = data.split_at_mut(dst * m);
        axpy(alpha, &lo[src * m..][rows.clone()], &mut hi[rows]);
    } else {
        let (lo, hi) = data.split_at_mut(src * m);
        axpy(alpha, &hi[rows.clone()], &mut lo[dst * m..][rows]);
    }
}

/// Triangular solve with multiple right-hand sides.
///
/// Solves `op(A) X = B` (`Side::Left`) or `X op(A) = B` (`Side::Right`) in
/// place on `b`, where `A` is triangular (only the triangle indicated by
/// `uplo` is referenced; the other triangle is assumed zero).
///
/// Lower-triangular solves — the shapes the BTA factorization and solves hit —
/// are blocked: the diagonal `TB × TB` systems are solved by substitution and
/// the trailing updates are delegated to the packed [`gemm`] engine. Upper
/// solves and small systems use the substitution loops in [`mod@reference`].
///
/// ```
/// use dalia_la::blas::{matmul, trsm, Side, Trans, Triangle};
/// use dalia_la::Matrix;
///
/// let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
/// let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// // Build B = L·X, then recover X by solving L·X = B in place.
/// let mut b = matmul(&l, &x);
/// trsm(Side::Left, Triangle::Lower, Trans::No, &l, &mut b);
/// assert!(b.max_abs_diff(&x) < 1e-12);
/// ```
pub fn trsm(side: Side, uplo: Triangle, trans: Trans, a: &Matrix, b: &mut Matrix) {
    let mut pack = PackBuffer::new();
    trsm_with(&mut pack, side, uplo, trans, a, b);
}

/// [`trsm`] with an explicit, reusable packing workspace.
pub fn trsm_with(pack: &mut PackBuffer, side: Side, uplo: Triangle, trans: Trans, a: &Matrix, b: &mut Matrix) {
    assert!(a.is_square(), "trsm: A must be square");
    let n = a.nrows();
    match side {
        Side::Left => assert_eq!(b.nrows(), n, "trsm-left: dimension mismatch"),
        Side::Right => assert_eq!(b.ncols(), n, "trsm-right: dimension mismatch"),
    }
    let nrhs = match side {
        Side::Left => b.ncols(),
        Side::Right => b.nrows(),
    };
    if uplo == Triangle::Upper || n * n * nrhs < NAIVE_MAX_FLOPS {
        reference::trsm_staged(side, uplo, trans, a, b, &mut pack.scratch);
        return;
    }
    match (side, trans) {
        (Side::Left, Trans::No) => trsm_blocked_left_lower_notrans(pack, a, b),
        (Side::Left, Trans::Yes) => trsm_blocked_left_lower_trans(pack, a, b),
        (Side::Right, Trans::No) => trsm_blocked_right_lower_notrans(pack, a, b),
        (Side::Right, Trans::Yes) => trsm_blocked_right_lower_trans(pack, a, b),
    }
}

/// Copy the block of rows `k0..k0+nb` of `b` into `pack.scratch`
/// (column-major, leading dimension `nb`) so trailing gemm updates can read
/// the solved panel while writing other rows of the same matrix.
fn stash_row_panel(pack: &mut PackBuffer, b: &Matrix, k0: usize, nb: usize) {
    let m = b.ncols();
    pack.scratch.clear();
    pack.scratch.resize(nb * m, 0.0);
    for j in 0..m {
        let col = &b.col(j)[k0..k0 + nb];
        pack.scratch[j * nb..(j + 1) * nb].copy_from_slice(col);
    }
}

/// Blocked forward substitution `L X = B`.
fn trsm_blocked_left_lower_notrans(pack: &mut PackBuffer, a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    let m = b.ncols();
    let ldb = b.nrows();
    for k0 in (0..n).step_by(TB) {
        let nb = TB.min(n - k0);
        // Solve the diagonal system L11 X1 = B1 by forward substitution.
        for j in 0..m {
            let col = b.col_mut(j);
            for i in 0..nb {
                let gi = k0 + i;
                let mut s = col[gi];
                for p in 0..i {
                    s -= a[(gi, k0 + p)] * col[k0 + p];
                }
                col[gi] = s / a[(gi, gi)];
            }
        }
        // Trailing update B2 -= L21 X1 through the packed engine.
        let rest = k0 + nb;
        if rest < n {
            stash_row_panel(pack, b, k0, nb);
            let scratch = std::mem::take(&mut pack.scratch);
            let x1 = StridedRef { data: &scratch, off: 0, rs: 1, cs: nb };
            gemm_packed(
                n - rest,
                m,
                nb,
                -1.0,
                op_ref(a, Trans::No).shifted(rest, k0),
                x1,
                b.as_mut_slice(),
                rest,
                ldb,
                pack,
            );
            pack.scratch = scratch;
        }
    }
}

/// Blocked backward substitution `Lᵀ X = B`.
fn trsm_blocked_left_lower_trans(pack: &mut PackBuffer, a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    let m = b.ncols();
    let ldb = b.nrows();
    let nblocks = n.div_ceil(TB);
    for bi in (0..nblocks).rev() {
        let k0 = bi * TB;
        let nb = TB.min(n - k0);
        // Solve L11ᵀ X1 = B1 by backward substitution.
        for j in 0..m {
            let col = b.col_mut(j);
            for i in (0..nb).rev() {
                let gi = k0 + i;
                let mut s = col[gi];
                for p in (i + 1)..nb {
                    s -= a[(k0 + p, gi)] * col[k0 + p];
                }
                col[gi] = s / a[(gi, gi)];
            }
        }
        // Leading update B0 -= L21ᵀ X1 (L21 couples rows k0.. to columns 0..k0).
        if k0 > 0 {
            stash_row_panel(pack, b, k0, nb);
            let scratch = std::mem::take(&mut pack.scratch);
            let x1 = StridedRef { data: &scratch, off: 0, rs: 1, cs: nb };
            gemm_packed(
                k0,
                m,
                nb,
                -1.0,
                op_ref(a, Trans::Yes).shifted(0, k0),
                x1,
                b.as_mut_slice(),
                0,
                ldb,
                pack,
            );
            pack.scratch = scratch;
        }
    }
}

/// Blocked `X L = B`, processed right-to-left over column blocks of X.
fn trsm_blocked_right_lower_notrans(pack: &mut PackBuffer, a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    let m = b.nrows();
    let nblocks = n.div_ceil(TB);
    for bi in (0..nblocks).rev() {
        let j0 = bi * TB;
        let nb = TB.min(n - j0);
        let end = j0 + nb;
        // B[:, J] -= X[:, end..] L[end.., J]; the solved columns live right of
        // the split point, the destination block left of it.
        if end < n {
            let (head, tail) = b.as_mut_slice().split_at_mut(end * m);
            let x_later = StridedRef { data: tail, off: 0, rs: 1, cs: m };
            gemm_packed(
                m,
                nb,
                n - end,
                -1.0,
                x_later,
                op_ref(a, Trans::No).shifted(end, j0),
                head,
                j0 * m,
                m,
                pack,
            );
        }
        // Solve X[:, J] L[J, J] = B[:, J] column by column (right to left).
        for jj in (0..nb).rev() {
            let jcol = j0 + jj;
            for p in (jj + 1)..nb {
                let l = a[(j0 + p, jcol)];
                if l != 0.0 {
                    axpy_cols(b, j0 + p, jcol, 0..m, -l);
                }
            }
            let d = a[(jcol, jcol)];
            for v in b.col_mut(jcol) {
                *v /= d;
            }
        }
    }
}

/// Blocked `X Lᵀ = B`, processed left-to-right over column blocks of X. This
/// is the factorization hot path (`B_i := B_i L_ii^{-T}` on every sub-diagonal
/// and arrow block of the BTA Cholesky).
fn trsm_blocked_right_lower_trans(pack: &mut PackBuffer, a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    let m = b.nrows();
    for j0 in (0..n).step_by(TB) {
        let nb = TB.min(n - j0);
        // B[:, J] -= X[:, 0..j0] (Lᵀ)[0..j0, J]; solved columns live left of
        // the split point, the destination block right of it.
        if j0 > 0 {
            let (head, tail) = b.as_mut_slice().split_at_mut(j0 * m);
            let x_prev = StridedRef { data: head, off: 0, rs: 1, cs: m };
            gemm_packed(
                m,
                nb,
                j0,
                -1.0,
                x_prev,
                op_ref(a, Trans::Yes).shifted(0, j0),
                tail,
                0,
                m,
                pack,
            );
        }
        // Solve X[:, J] (Lᵀ)[J, J] = B[:, J] column by column (left to right).
        for jj in 0..nb {
            let jcol = j0 + jj;
            for p in 0..jj {
                let l = a[(jcol, j0 + p)];
                if l != 0.0 {
                    axpy_cols(b, j0 + p, jcol, 0..m, -l);
                }
            }
            let d = a[(jcol, jcol)];
            for v in b.col_mut(jcol) {
                *v /= d;
            }
        }
    }
}

/// Triangular solve for a single vector: solves `op(A) x = b` in place.
pub fn trsv_in_place(uplo: Triangle, trans: Trans, a: &Matrix, x: &mut [f64]) {
    let n = a.nrows();
    assert_eq!(x.len(), n, "trsv: dimension mismatch");
    match (uplo, trans) {
        (Triangle::Lower, Trans::No) => {
            // Forward substitution.
            for i in 0..n {
                let mut s = x[i];
                for k in 0..i {
                    s -= a[(i, k)] * x[k];
                }
                x[i] = s / a[(i, i)];
            }
        }
        (Triangle::Lower, Trans::Yes) => {
            // Backward substitution with L^T (upper triangular).
            for i in (0..n).rev() {
                let mut s = x[i];
                for k in (i + 1)..n {
                    s -= a[(k, i)] * x[k];
                }
                x[i] = s / a[(i, i)];
            }
        }
        (Triangle::Upper, Trans::No) => {
            for i in (0..n).rev() {
                let mut s = x[i];
                for k in (i + 1)..n {
                    s -= a[(i, k)] * x[k];
                }
                x[i] = s / a[(i, i)];
            }
        }
        (Triangle::Upper, Trans::Yes) => {
            for i in 0..n {
                let mut s = x[i];
                for k in 0..i {
                    s -= a[(k, i)] * x[k];
                }
                x[i] = s / a[(i, i)];
            }
        }
    }
}

/// Triangular matrix-matrix multiply `B := op(A) B` with `A` triangular
/// (referenced triangle given by `uplo`). Only `Side::Left` is needed by the
/// solver stack, and only outside the hot path, so this stays a plain loop.
pub fn trmm_left(uplo: Triangle, trans: Trans, a: &Matrix, b: &mut Matrix) {
    assert!(a.is_square());
    let n = a.nrows();
    assert_eq!(b.nrows(), n);
    let mut tmp = vec![0.0; n];
    for j in 0..b.ncols() {
        {
            let col = b.col(j);
            for i in 0..n {
                let mut s = 0.0;
                match (uplo, trans) {
                    (Triangle::Lower, Trans::No) => {
                        for k in 0..=i {
                            s += a[(i, k)] * col[k];
                        }
                    }
                    (Triangle::Lower, Trans::Yes) => {
                        for k in i..n {
                            s += a[(k, i)] * col[k];
                        }
                    }
                    (Triangle::Upper, Trans::No) => {
                        for k in i..n {
                            s += a[(i, k)] * col[k];
                        }
                    }
                    (Triangle::Upper, Trans::Yes) => {
                        for k in 0..=i {
                            s += a[(k, i)] * col[k];
                        }
                    }
                }
                tmp[i] = s;
            }
        }
        b.col_mut(j).copy_from_slice(&tmp);
    }
}

/// Number of floating-point operations for a `m x k` by `k x n` GEMM.
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Reference (naive-loop) level-3 kernels.
///
/// These are the pre-blocking implementations, retained forever as ground
/// truth: the parity suites (`crates/la/tests/proptest_kernels.rs`) check the
/// blocked kernels against them bit-for-bit-close (`1e-12`), the blocked
/// entry points fall back to them for cache-resident problems, and
/// `kernel_bench` reports the blocked kernels' speedup over them.
pub mod reference {
    use super::{axpy, dot, trsv_in_place, Matrix, Side, Trans, Triangle};

    /// `C += alpha * op(A) op(B)` with the historical loop orders (beta
    /// scaling is the caller's job). Shared by [`gemm`] and the small-problem
    /// fast path of the blocked kernel, so tiny products are bit-identical to
    /// the pre-blocking implementation.
    pub(crate) fn gemm_acc(trans_a: Trans, trans_b: Trans, alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        let k = match trans_a {
            Trans::No => a.ncols(),
            Trans::Yes => a.nrows(),
        };
        let (opa_m, opb_n) = c.shape();
        match (trans_a, trans_b) {
            (Trans::No, Trans::No) => {
                // C[:, j] += alpha * A[:, l] * B[l, j]
                for j in 0..opb_n {
                    for l in 0..k {
                        let blj = alpha * b[(l, j)];
                        if blj != 0.0 {
                            axpy(blj, a.col(l), c.col_mut(j));
                        }
                    }
                }
            }
            (Trans::Yes, Trans::No) => {
                // C[i, j] += alpha * dot(A[:, i], B[:, j])
                for j in 0..opb_n {
                    let bcol = b.col(j);
                    for i in 0..opa_m {
                        c[(i, j)] += alpha * dot(a.col(i), bcol);
                    }
                }
            }
            (Trans::No, Trans::Yes) => {
                // C[:, j] += alpha * A[:, l] * B[j, l]
                for j in 0..opb_n {
                    for l in 0..k {
                        let bjl = alpha * b[(j, l)];
                        if bjl != 0.0 {
                            axpy(bjl, a.col(l), c.col_mut(j));
                        }
                    }
                }
            }
            (Trans::Yes, Trans::Yes) => {
                // C[i, j] += alpha * dot(A[:, i], B[j, :]) — explicit loop.
                for j in 0..opb_n {
                    for i in 0..opa_m {
                        let mut s = 0.0;
                        for l in 0..k {
                            s += a[(l, i)] * b[(j, l)];
                        }
                        c[(i, j)] += alpha * s;
                    }
                }
            }
        }
    }

    /// Reference `C = alpha * op(A) op(B) + beta * C` (naive loops).
    pub fn gemm(
        trans_a: Trans,
        trans_b: Trans,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &mut Matrix,
    ) {
        let (am, an) = a.shape();
        let (bm, bn) = b.shape();
        let (opa_m, opa_k) = match trans_a {
            Trans::No => (am, an),
            Trans::Yes => (an, am),
        };
        let (opb_k, opb_n) = match trans_b {
            Trans::No => (bm, bn),
            Trans::Yes => (bn, bm),
        };
        assert_eq!(opa_k, opb_k, "gemm: inner dimension mismatch");
        assert_eq!(c.shape(), (opa_m, opb_n), "gemm: output shape mismatch");
        super::scale_matrix(beta, c);
        gemm_acc(trans_a, trans_b, alpha, a, b, c);
    }

    /// Lower-triangle accumulation `C[lower] += alpha * op(A) op(A)ᵀ` with the
    /// historical loop orders.
    pub(crate) fn syrk_acc(trans: Trans, alpha: f64, a: &Matrix, c: &mut Matrix) {
        let n = c.nrows();
        let k = match trans {
            Trans::No => a.ncols(),
            Trans::Yes => a.nrows(),
        };
        match trans {
            Trans::No => {
                for l in 0..k {
                    let col = a.col(l);
                    for j in 0..n {
                        let ajl = alpha * col[j];
                        if ajl != 0.0 {
                            for i in j..n {
                                c[(i, j)] += ajl * col[i];
                            }
                        }
                    }
                }
            }
            Trans::Yes => {
                for j in 0..n {
                    for i in j..n {
                        c[(i, j)] += alpha * dot(a.col(i), a.col(j));
                    }
                }
            }
        }
    }

    /// Reference lower-triangle rank-k update (naive loops).
    pub fn syrk_lower(trans: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
        let n = match trans {
            Trans::No => a.nrows(),
            Trans::Yes => a.ncols(),
        };
        assert_eq!(c.shape(), (n, n), "syrk: output must be n x n");
        for j in 0..n {
            for v in &mut c.col_mut(j)[j..] {
                *v *= beta;
            }
        }
        syrk_acc(trans, alpha, a, c);
    }

    /// Reference full rank-k update (both triangles written).
    pub fn syrk_full(trans: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
        syrk_lower(trans, alpha, a, beta, c);
        c.mirror_lower();
    }

    /// Reference triangular solve: per-column (`Side::Left`) or per-row
    /// (`Side::Right`) substitution via [`trsv_in_place`].
    pub fn trsm(side: Side, uplo: Triangle, trans: Trans, a: &Matrix, b: &mut Matrix) {
        trsm_staged(side, uplo, trans, a, b, &mut Vec::new());
    }

    /// [`trsm`] with the row that a right-side solve substitutes staged in
    /// `row`, so a warm caller's buffer spares the allocation.
    pub(crate) fn trsm_staged(side: Side, uplo: Triangle, trans: Trans, a: &Matrix, b: &mut Matrix, row: &mut Vec<f64>) {
        assert!(a.is_square(), "trsm: A must be square");
        let n = a.nrows();
        match side {
            Side::Left => {
                assert_eq!(b.nrows(), n, "trsm-left: dimension mismatch");
                for j in 0..b.ncols() {
                    trsv_in_place(uplo, trans, a, b.col_mut(j));
                }
            }
            Side::Right => {
                assert_eq!(b.ncols(), n, "trsm-right: dimension mismatch");
                // X op(A) = B  <=>  op(A)^T X^T = B^T; solve row by row.
                let flipped = match trans {
                    Trans::No => Trans::Yes,
                    Trans::Yes => Trans::No,
                };
                let m = b.nrows();
                row.clear();
                row.resize(n, 0.0);
                for i in 0..m {
                    for (j, r) in row.iter_mut().enumerate() {
                        *r = b[(i, j)];
                    }
                    trsv_in_place(uplo, flipped, a, row);
                    for (j, r) in row.iter().enumerate() {
                        b[(i, j)] = *r;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.max_abs_diff(b) < tol
    }

    /// Deterministic dense test matrix.
    fn test_mat(m: usize, n: usize, seed: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| {
            let v = (i * 31 + j * 17 + seed * 7) % 23;
            (v as f64) / 11.5 - 1.0
        })
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn gemv_no_trans() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = matvec(&a, &[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn gemv_trans() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = matvec_t(&a, &[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![9.0, 12.0]);
    }

    #[test]
    fn gemm_all_transposes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]); // 2x3
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]); // 3x2
        let expected = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]);

        let c = matmul(&a, &b);
        assert!(approx_eq(&c, &expected, 1e-12));

        // A^T variant: (A^T)^T B = A B.
        let at = a.transpose();
        let mut c2 = Matrix::zeros(2, 2);
        gemm(Trans::Yes, Trans::No, 1.0, &at, &b, 0.0, &mut c2);
        assert!(approx_eq(&c2, &expected, 1e-12));

        // B^T variant.
        let bt = b.transpose();
        let mut c3 = Matrix::zeros(2, 2);
        gemm(Trans::No, Trans::Yes, 1.0, &a, &bt, 0.0, &mut c3);
        assert!(approx_eq(&c3, &expected, 1e-12));

        // Both transposed.
        let mut c4 = Matrix::zeros(2, 2);
        gemm(Trans::Yes, Trans::Yes, 1.0, &at, &bt, 0.0, &mut c4);
        assert!(approx_eq(&c4, &expected, 1e-12));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut c = Matrix::filled(2, 2, 10.0);
        gemm(Trans::No, Trans::No, 2.0, &a, &b, 0.5, &mut c);
        assert_eq!(c[(0, 0)], 7.0); // 2*1 + 0.5*10
        assert_eq!(c[(1, 1)], 13.0); // 2*4 + 0.5*10
    }

    #[test]
    fn blocked_gemm_matches_reference_above_threshold() {
        // Big enough to take the packed path in every transpose combination,
        // with tile-unaligned dimensions.
        let (m, n, k) = (70, 53, 41);
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            let a = match ta {
                Trans::No => test_mat(m, k, 1),
                Trans::Yes => test_mat(k, m, 1),
            };
            let b = match tb {
                Trans::No => test_mat(k, n, 2),
                Trans::Yes => test_mat(n, k, 2),
            };
            let mut c = test_mat(m, n, 3);
            let mut c_ref = c.clone();
            gemm(ta, tb, 1.3, &a, &b, -0.7, &mut c);
            reference::gemm(ta, tb, 1.3, &a, &b, -0.7, &mut c_ref);
            assert!(approx_eq(&c, &c_ref, 1e-12), "mismatch for {ta:?}/{tb:?}");
        }
    }

    #[test]
    fn blocked_syrk_matches_reference_above_threshold() {
        for trans in [Trans::No, Trans::Yes] {
            let a = match trans {
                Trans::No => test_mat(90, 37, 4),
                Trans::Yes => test_mat(37, 90, 4),
            };
            let mut c = test_mat(90, 90, 5);
            let mut c_ref = c.clone();
            syrk_lower(trans, 0.9, &a, 0.4, &mut c);
            reference::syrk_lower(trans, 0.9, &a, 0.4, &mut c_ref);
            assert!(approx_eq(&c, &c_ref, 1e-12), "mismatch for {trans:?}");
        }
    }

    #[test]
    fn blocked_trsm_matches_reference_above_threshold() {
        let n = 100;
        let mut l = test_mat(n, n, 6);
        for j in 0..n {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
            l[(j, j)] = 2.0 + l[(j, j)].abs();
        }
        for (side, trans) in [
            (Side::Left, Trans::No),
            (Side::Left, Trans::Yes),
            (Side::Right, Trans::No),
            (Side::Right, Trans::Yes),
        ] {
            let mut b = match side {
                Side::Left => test_mat(n, 60, 7),
                Side::Right => test_mat(60, n, 7),
            };
            let mut b_ref = b.clone();
            trsm(side, Triangle::Lower, trans, &l, &mut b);
            reference::trsm(side, Triangle::Lower, trans, &l, &mut b_ref);
            assert!(approx_eq(&b, &b_ref, 1e-11), "mismatch for {side:?}/{trans:?}");
        }
    }

    #[test]
    fn micro_kernel_tiers_match_portable_body() {
        // Each intrinsics micro-kernel is pinned against the generic body at
        // its own (MR, NR) shape; differences come only from FMA contraction
        // (last-ulp). Unsupported tiers self-skip with a visible line.
        fn check<T: MicroTile>(name: &str) {
            for kc in [0usize, 1, 2, 7, 64, 256, 300] {
                let apanel: Vec<f64> =
                    (0..kc * T::MR).map(|i| ((i * 37 + 11) % 23) as f64 / 11.5 - 1.0).collect();
                let bpanel: Vec<f64> =
                    (0..kc * T::NR).map(|i| ((i * 29 + 5) % 19) as f64 / 9.5 - 1.0).collect();
                let mut acc_portable = [0.1f64; ACC_LEN];
                match (T::MR, T::NR) {
                    (8, 4) => micro_kernel_body::<8, 4>(kc, &apanel, &bpanel, &mut acc_portable),
                    (16, 8) => micro_kernel_body::<16, 8>(kc, &apanel, &bpanel, &mut acc_portable),
                    other => panic!("unexpected micro-tile shape {other:?}"),
                }
                let mut acc_tier = [0.1f64; ACC_LEN];
                T::kernel(kc, &apanel, &bpanel, &mut acc_tier);
                for (p, d) in acc_portable.iter().zip(&acc_tier) {
                    assert!((p - d).abs() < 1e-12, "{name} kc={kc}: {p} vs {d}");
                }
            }
        }
        check::<PortableTile>("portable");
        if KernelTier::Avx2.is_supported() {
            check::<Avx2Tile>("avx2");
        } else {
            println!("skipping avx2 micro-kernel parity: not supported on this host");
        }
        if KernelTier::Avx512.is_supported() {
            check::<Avx512Tile>("avx512");
        } else {
            println!("skipping avx512 micro-kernel parity: not supported on this host");
        }
    }

    #[test]
    fn kernel_tier_names_roundtrip() {
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::from_name(" AVX512 "), Some(KernelTier::Avx512));
        assert_eq!(KernelTier::from_name("sse9"), None);
        // The portable tier must be supported everywhere and always listed.
        assert!(KernelTier::Portable.is_supported());
        assert!(supported_kernel_tiers().contains(&KernelTier::Portable));
    }

    #[test]
    fn blocking_override_is_clamped() {
        // Only exercises the pure clamp helper: mutating the global blocking
        // here would race the bitwise/parity tests in this binary.
        assert_eq!(clamp_blocking(8, 100_000, 256), (32, 2048, 256));
    }

    #[test]
    fn gemm_with_reuses_workspace() {
        let mut pack = PackBuffer::new();
        let a = test_mat(64, 64, 8);
        let b = test_mat(64, 64, 9);
        let mut c1 = Matrix::zeros(64, 64);
        gemm_with(&mut pack, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c1);
        let mut c2 = Matrix::zeros(64, 64);
        gemm_with(&mut pack, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c2);
        assert_eq!(c1.as_slice(), c2.as_slice());
        assert!(approx_eq(&c1, &matmul(&a, &b), 1e-12));
    }

    #[test]
    fn workspace_grown_by_larger_calls_matches_a_fresh_one() {
        // A pack grown by larger calls still holds their packed panels and
        // staged blocks; later tile-edge calls must depend on their own
        // operands only.
        let spd = |n: usize, seed: usize| {
            let g = test_mat(n, n, seed);
            let mut a = Matrix::identity(n);
            gemm(Trans::No, Trans::Yes, 1.0 / n as f64, &g, &g, 2.0, &mut a);
            a
        };
        let mut warm = PackBuffer::new();
        crate::chol::potrf_with(&mut warm, &mut spd(200, 50)).unwrap();
        // 120 columns keep this gemm off the parallel path, so it packs into
        // `warm` rather than the per-worker packs.
        let mut c_big = Matrix::zeros(200, 120);
        let (big_a, big_b) = (test_mat(200, 100, 39), test_mat(120, 100, 40));
        gemm_with(&mut warm, Trans::No, Trans::Yes, 1.0, &big_a, &big_b, 0.0, &mut c_big);

        let (a, b) = (test_mat(70, 67, 41), test_mat(45, 70, 42));
        let s = test_mat(69, 66, 43);
        let x0 = test_mat(70, 77, 44);
        let mut outputs = Vec::new();
        for pack in [&mut warm, &mut PackBuffer::new()] {
            let mut c = Matrix::zeros(67, 45);
            gemm_with(pack, Trans::Yes, Trans::Yes, 1.0, &a, &b, 0.0, &mut c);
            let mut k = Matrix::zeros(69, 69);
            syrk_lower_with(pack, Trans::No, 1.0, &s, 0.0, &mut k);
            let mut l = spd(77, 45);
            crate::chol::potrf_with(pack, &mut l).unwrap();
            let mut x = x0.clone();
            trsm_with(pack, Side::Right, Triangle::Lower, Trans::Yes, &l, &mut x);
            outputs.push([c, k, l, x]);
        }
        for (w, f) in outputs[0].iter().zip(&outputs[1]) {
            assert_eq!(w.as_slice(), f.as_slice());
        }
    }

    #[test]
    fn operands_rewritten_in_place_are_repacked() {
        // The pack keys nothing by operand address: rewriting an operand's
        // values in place between calls on one pack must give exactly what a
        // fresh pack gives. The retained no-op switches must not change that.
        let mut a = test_mat(96, 80, 33);
        let b = test_mat(80, 96, 34);
        let mut pack = PackBuffer::new();
        pack.enable_panel_reuse(true);
        let mut c = Matrix::zeros(96, 96);
        gemm_with(&mut pack, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        let mut k = Matrix::zeros(96, 96);
        syrk_lower_with(&mut pack, Trans::No, 1.0, &a, 0.0, &mut k);

        let ptr = a.as_slice().as_ptr();
        a.as_mut_slice().iter_mut().for_each(|v| *v = 2.0 * *v + 0.25);
        assert_eq!(a.as_slice().as_ptr(), ptr);
        for invalidate in [false, true] {
            if invalidate {
                pack.invalidate_panels();
            }
            let mut c_warm = Matrix::zeros(96, 96);
            gemm_with(&mut pack, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c_warm);
            let mut k_warm = Matrix::zeros(96, 96);
            syrk_lower_with(&mut pack, Trans::No, 1.0, &a, 0.0, &mut k_warm);

            let mut fresh = PackBuffer::new();
            let mut c_fresh = Matrix::zeros(96, 96);
            gemm_with(&mut fresh, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c_fresh);
            let mut k_fresh = Matrix::zeros(96, 96);
            syrk_lower_with(&mut fresh, Trans::No, 1.0, &a, 0.0, &mut k_fresh);
            assert_eq!(c_warm.as_slice(), c_fresh.as_slice(), "stale gemm panels");
            assert_eq!(k_warm.as_slice(), k_fresh.as_slice(), "stale syrk panels");

            let mut c_ref = Matrix::zeros(96, 96);
            reference::gemm_acc(Trans::No, Trans::No, 1.0, &a, &b, &mut c_ref);
            assert!(approx_eq(&c_warm, &c_ref, 1e-10));
            let mut k_ref = Matrix::zeros(96, 96);
            reference::syrk_lower(Trans::No, 1.0, &a, 0.0, &mut k_ref);
            assert!(approx_eq(&k_warm, &k_ref, 1e-10));
        }
    }

    #[test]
    fn parallel_gemm_is_bitwise_identical_to_sequential_packed() {
        // 160·144·150 = 3.46M > PAR_MIN_FLOPS with 144 ≥ 2·PAR_MIN_COLS
        // columns. The parallel side runs inside a pool pinned to 4 workers
        // so the column-split path is exercised even on a 1-core host (the
        // global pool would size itself to the hardware and fall back to the
        // sequential engine there).
        let (m, n, k) = (160, 144, 150);
        let pool = dalia_pool::ThreadPool::new(4);
        pool.install(|| assert!(use_parallel_gemm(m, n, k)));
        let a = test_mat(m, k, 21);
        let b = test_mat(k, n, 22);
        let mut c_par = Matrix::zeros(m, n);
        pool.install(|| gemm(Trans::No, Trans::No, 1.25, &a, &b, 0.0, &mut c_par));
        // Ground truth: the sequential packed engine, bypassing the split.
        let mut c_seq = Matrix::zeros(m, n);
        let mut pack = PackBuffer::new();
        gemm_packed(
            m,
            n,
            k,
            1.25,
            op_ref(&a, Trans::No),
            op_ref(&b, Trans::No),
            c_seq.as_mut_slice(),
            0,
            m,
            &mut pack,
        );
        for (x, y) in c_par.as_slice().iter().zip(c_seq.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "parallel gemm drifted from sequential");
        }
        // And the transposed variants route identically.
        let mut ct_par = Matrix::zeros(n, m);
        pool.install(|| gemm(Trans::Yes, Trans::Yes, -0.5, &b, &a, 0.0, &mut ct_par));
        let mut ct_seq = Matrix::zeros(n, m);
        gemm_packed(
            n,
            m,
            k,
            -0.5,
            op_ref(&b, Trans::Yes),
            op_ref(&a, Trans::Yes),
            ct_seq.as_mut_slice(),
            0,
            n,
            &mut pack,
        );
        for (x, y) in ct_par.as_slice().iter().zip(ct_seq.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "parallel gemm (transposed) drifted");
        }
    }

    #[test]
    fn syrk_matches_gemm() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut c = Matrix::zeros(3, 3);
        syrk_full(Trans::No, 1.0, &a, 0.0, &mut c);
        let expected = matmul(&a, &a.transpose());
        assert!(approx_eq(&c, &expected, 1e-12));

        let mut ct = Matrix::zeros(2, 2);
        syrk_full(Trans::Yes, 1.0, &a, 0.0, &mut ct);
        let expected_t = matmul(&a.transpose(), &a);
        assert!(approx_eq(&ct, &expected_t, 1e-12));
    }

    #[test]
    fn syrk_lower_leaves_upper_untouched() {
        let a = test_mat(80, 40, 10);
        let mut c = Matrix::filled(80, 80, 42.0);
        syrk_lower(Trans::No, 1.0, &a, 0.0, &mut c);
        for j in 1..80 {
            for i in 0..j {
                assert_eq!(c[(i, j)], 42.0, "upper triangle entry ({i},{j}) was written");
            }
        }
    }

    #[test]
    fn trsv_lower_and_upper() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let mut x = vec![4.0, 11.0];
        trsv_in_place(Triangle::Lower, Trans::No, &l, &mut x);
        assert!((x[0] - 2.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);

        // L^T x = b.
        let mut y = vec![7.0, 9.0];
        trsv_in_place(Triangle::Lower, Trans::Yes, &l, &mut y);
        // L^T = [[2,1],[0,3]]; solve: x1 = 3, x0 = (7-3)/2 = 2.
        assert!((y[0] - 2.0).abs() < 1e-14);
        assert!((y[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn trsm_left_lower() {
        let l = Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[4.0, 5.0, 6.0]]);
        let x_true = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut b = matmul(&l, &x_true);
        trsm(Side::Left, Triangle::Lower, Trans::No, &l, &mut b);
        assert!(approx_eq(&b, &x_true, 1e-12));
    }

    #[test]
    fn trsm_right_lower_transpose() {
        // Solve X L^T = B, the operation used in block Cholesky (B_i L_ii^{-T}).
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let x_true = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut b = matmul(&x_true, &l.transpose());
        trsm(Side::Right, Triangle::Lower, Trans::Yes, &l, &mut b);
        assert!(approx_eq(&b, &x_true, 1e-12));
    }

    #[test]
    fn small_right_trsm_with_stages_rows_in_the_pack_bitwise() {
        // Below the blocked threshold `trsm_with` substitutes each row in the
        // pack's scratch; whatever the scratch held, the bits are the
        // reference kernel's.
        let mut l = test_mat(9, 9, 3);
        for j in 0..9 {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
            l[(j, j)] = 2.0 + l[(j, j)].abs();
        }
        let b0 = test_mat(5, 9, 4);
        let mut pack = PackBuffer::new();
        pack.scratch = vec![7.0; 3];
        for trans in [Trans::No, Trans::Yes] {
            let mut want = b0.clone();
            reference::trsm(Side::Right, Triangle::Lower, trans, &l, &mut want);
            let mut got = b0.clone();
            trsm_with(&mut pack, Side::Right, Triangle::Lower, trans, &l, &mut got);
            assert_eq!(got.as_slice(), want.as_slice(), "trans {trans:?}");
        }
    }

    #[test]
    fn trmm_left_lower() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut b = x.clone();
        trmm_left(Triangle::Lower, Trans::No, &l, &mut b);
        let expected = matmul(&l, &x);
        assert!(approx_eq(&b, &expected, 1e-12));

        let mut bt = x.clone();
        trmm_left(Triangle::Lower, Trans::Yes, &l, &mut bt);
        let expected_t = matmul(&l.transpose(), &x);
        assert!(approx_eq(&bt, &expected_t, 1e-12));
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    #[test]
    fn degenerate_dims_are_noops() {
        // k = 0: C = beta * C.
        let a = Matrix::zeros(5, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::filled(5, 4, 2.0);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.5, &mut c);
        assert!(approx_eq(&c, &Matrix::filled(5, 4, 1.0), 1e-15));
        // Zero-sized outputs.
        let mut empty = Matrix::zeros(0, 0);
        gemm(Trans::No, Trans::No, 1.0, &Matrix::zeros(0, 3), &Matrix::zeros(3, 0), 0.0, &mut empty);
        let mut c0 = Matrix::zeros(0, 0);
        syrk_lower(Trans::No, 1.0, &Matrix::zeros(0, 3), 0.0, &mut c0);
        let mut b0 = Matrix::zeros(0, 2);
        trsm(Side::Left, Triangle::Lower, Trans::No, &Matrix::zeros(0, 0), &mut b0);
    }
}
