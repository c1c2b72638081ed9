//! Cache-blocked, register-tiled f32 GEMM kernels.
//!
//! Every experiment in the VehiGAN stack — WGAN training, ensemble
//! scoring, FGSM attacks — bottoms out in one of three matrix products:
//!
//! - `C += A·B`   ([`gemm`]): layer forward passes (input/im2col × weights);
//! - `C += Aᵀ·B`  ([`gemm_tn`]): weight gradients `dW = Xᵀ·dY` without
//!   materializing `Xᵀ`;
//! - `C += A·Bᵀ`  ([`gemm_nt`]): input gradients `dX = dY·Wᵀ` without
//!   materializing `Wᵀ`.
//!
//! # Kernel layout
//!
//! Each of the three products has three legs — portable, AVX2+FMA and
//! AVX-512F — chosen once per process by cached CPU detection
//! ([`f32_leg`] names the one in use).
//!
//! No f32 product packs its operands. [`gemm`] is not a kernel of its
//! own: it is the fused forward sweep of [`gemm_f32_fused`] (see "Fused
//! f32 forward sweep" below) over a plain row-major `A`, with the
//! epilogue that adds each finished register block into `C` instead of
//! biasing and activating it. Training and scoring therefore run one f32
//! forward definition per leg.
//!
//! On the portable and AVX2 legs [`gemm_tn`] is a rank-1 sweep (every
//! `k`-step adds `a[k][i]·b[k][·]` into row `i` of `C`, through memory) and
//! [`gemm_nt`] one eight-lane [`dot`] per output element; the AVX2 leg is
//! the portable source compiled for wider registers. Their AVX-512 legs
//! are written with intrinsics and keep a block of `C` in registers across
//! the `k` sweep:
//!
//! - [`gemm_tn`]: up to 12 rows × 32 columns of `C` in 24 `zmm`
//!   accumulators per `KC` panel, each `k`-step one or two loads of `B`'s
//!   row and one broadcast of `a[k][i]` per row of the block, read where
//!   the operands lie. Rows go greedily in blocks of 12, 8, 4, 2 and 1, so
//!   no block computes a row it throws away; the last 16 or fewer columns
//!   are one masked vector; each step is `vmulps` then `vaddps`. The
//!   `n = 1` head stays on the body's axpy;
//! - [`gemm_nt`] gives each of [`dot`]'s eight lanes a register of its
//!   own, sixteen outputs of a row of `C` wide, for three rows at a time
//!   (24 accumulators): `k`-step `t` adds `a[i][t]·B[j..j+16][t]` into
//!   lane `t % 8`, and [`dot`]'s reduction tree and tail are vertical adds.
//!   `B[j..j+16][t]` side by side needs `B` transposed into 16-column
//!   strips first (`n·k` gathered moves per call, into the thread's
//!   packing buffer); a product of fewer than 8 rows does not repay that
//!   and stays on the body's one [`dot`] per output.
//!
//! # Determinism
//!
//! For every kernel the reduction over `k` runs in strictly increasing
//! order *per output element*: an accumulator starts from `C` (or from
//! zero, for the biased epilogue) and a panelled sweep stores it back to
//! `C` and reloads it between panels (a round trip that rounds nothing),
//! so the association matches the naive i-k-j triple loop. Consequences:
//!
//! - the portable [`gemm`] is **bitwise identical** to [`naive`] *on finite
//!   operands*: [`naive`] skips a zero in `A`, so it never forms the NaN of
//!   `0·∞` or `0·NaN`, and leaves a `−0.0` in `C` alone where the sweep's
//!   `−0.0 + 0.0` makes it `+0.0`;
//! - the AVX2 and AVX-512 legs of [`gemm`] fuse each multiply-add (one
//!   rounding instead of two), so they differ from [`naive`] by ≤ 1e-4
//!   relative error, and **agree with each other bit for bit**: per
//!   element both run the same `fma(a[i][k], b[k][j], acc)` chain from the
//!   value in `C`, whatever the blocking;
//! - [`gemm_tn`] performs exactly one rounded multiply and one add per
//!   output element per `k`-step with no fusion on every leg — in memory or
//!   in a register — so it is bitwise identical to
//!   `a.transpose().matmul(b)` on the portable leg, and the same bits on
//!   every ISA;
//! - [`gemm_nt`] is, on every leg, [`dot`]'s arithmetic per output: eight
//!   partial sums each fed one rounded multiply and one add per 8-chunk,
//!   the tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, the `k % 8` tail
//!   summed from zero in order, `c += tree + tail`. Machine-independent
//!   and deterministic, but associated differently from the scalar loop
//!   (property tests bound the difference at ≤ 1e-4);
//! - a process never switches legs mid-run (detection is cached), and a
//!   host with AVX-512 trains the bits a host with AVX2 trains: "bitwise
//!   the leg it replaces" is pinned by unit tests that call each leg
//!   directly against its scalar reference or the body under it, and by
//!   property tests that hold the dispatched entry points to scalar
//!   references on ragged shapes with ±0, ±∞ and NaN operands. NaNs
//!   compare as NaNs there: which payload an add of two NaNs keeps is the
//!   instruction's operand order, which no leg promises.
//!
//! The three products *accumulate* into `C` (`beta = 1`); callers that
//! want a plain product must zero `C` first. This is what lets
//! `Dense::backward` add `dW` straight into the gradient buffer.
//!
//! # Fused f32 forward sweep
//!
//! [`gemm_f32_fused`] is the float twin of the int8 family's
//! [`gemm_i8_dequant`] below: it reads convolution patches in place from a
//! zero-bordered f32 plane ([`Patches`]) — or the rows of a plain matrix —
//! reads the weights where the layer stores them (`[k, cout]` row-major is
//! already a strip layout: row `k`'s `cout` floats are one or two vector
//! loads), and finishes each register block before it touches memory, by
//! one of two epilogues fixed at compile time:
//!
//! - *bias*: `+ bias[j]`, then LeakyReLU when the layer has one — scoring,
//!   and the `Conv2D` / `Dense` training forward, which call
//!   [`gemm_f32_fused`] over their im2col or input matrix;
//! - *accumulate*: `+=` into `C` — [`gemm`].
//!
//! Per output element the sweep is one multiply-add per `k`-step in
//! increasing `k` (fused on the two vector legs, rounded twice on the
//! portable one) from zero or from `C`, so a biased forward is bitwise
//! what [`gemm`] into a zeroed buffer and a bias sweep compute on the same
//! leg, and the AVX2 and AVX-512 legs agree bit for bit.
//!
//! # Int8 kernels
//!
//! Next to the f32 family lives an `i8×i8→i32` inference family used by
//! the quantized backend in `vehigan-lite`:
//!
//! - [`PackedI8`] — a weight matrix packed **once** (at model-compile
//!   time) into `NR`-column strips with the shared dimension interleaved
//!   in `k`-pairs, the exact layout `_mm256_madd_epi16` consumes, plus a
//!   `k`-quad mirror in [`NR_VNNI`]-column strips (with per-column sums)
//!   for the AVX-512 VNNI kernel. The shared dimension may be cut into
//!   equal **spans** ([`PackedI8::pack_spans`]), each padded to a whole
//!   pair/quad, so a convolution patch — `kh` separate `kw·cin`-byte runs
//!   of a padded activation plane — is multiplied where it lies;
//! - [`Patches`] — where the rows of a left operand live: a plain
//!   row-major matrix, or the patches of a same-padded convolution read
//!   straight out of the padded plane (no im2col copy);
//! - one micro-kernel sweep per ISA — portable, AVX2 (`cvtepi8_epi16`
//!   widening + `madd_epi16` pair-dot, 4 rows × 2 strips) and AVX-512
//!   VNNI (`vpdpbusd`, one 4-deep dot per lane per instruction, 8 rows ×
//!   2 strips = 16 independent accumulators) — whose register block is
//!   finished in place by one of two epilogues: [`gemm_i8`] adds the i32
//!   block into `C`; [`gemm_i8_dequant`] turns it into the next layer's
//!   f32 activations (`acc · mult[j] + bias[j]`, optional LeakyReLU) and
//!   tracks their max-abs, so the accumulators never touch memory;
//! - a fourth leg under the VNNI one, for [`gemm_i8_dequant`]'s
//!   convolution products only: on a host with AMX, inside a
//!   [`TileSession`], one plane row of 4 to 16 patches is one `tdpbusd`
//!   tile block — the A tiles are loaded in place from the padded plane
//!   (64 bytes from the start of each patch's span; what lies past the
//!   span meets zero weight rows), the B tiles are the quad mirror padded
//!   to 16 quad rows per (strip, span) and stay resident for the sweep,
//!   the C tiles start at `−128·Σ_k b[k][j]`, and each finished tile goes
//!   through memory to the VNNI leg's epilogue. Shapes the tiles do not
//!   fit (more than two spans or two strips, spans under 16 or over 64
//!   bytes — the critic's `k = 4` first layer is faster on VNNI — a plane
//!   row outside `4..=16` patches, a plane without a tile row of slack),
//!   the `n = 1` heads and plain [`gemm_i8`] stay on VNNI.
//!   [`int8_leg`] names the leg a process dispatches;
//! - `vpdpbusd` takes *unsigned* left operands, so on the VNNI leg
//!   activations carry a +128 bias ([`i8_activation_bias`], an XOR with
//!   `0x80` applied once when they are quantized) and every accumulator
//!   starts at the exact correction `−128·Σ_k b[k][j]`, taken from the
//!   packed per-column sums;
//! - a single-column `B` (the critic's dense head) is a dot product, not
//!   a strip sweep: it is kept in plain `k` order and multiplied 64 bytes
//!   per step.
//!
//! Integer accumulation is exact, so **portable, AVX2, VNNI and AMX int8
//! kernels produce bitwise-identical i32 accumulators** on every ISA —
//! stronger than the f32 contract, and the property the int8 backend's
//! determinism rests on. (`tdpbusd` is `vpdpbusd` per tile element: four
//! zero-extended `u8` × sign-extended `i8` products added into an i32
//! lane without saturation; it sees the same biased bytes and the same
//! `−128·S_j` start, and the zero-padded tile rows add zeros.) The
//! dequantizing epilogue performs the same IEEE operations lane for lane
//! on every leg (convert, multiply, add, ordered-greater select) — the
//! tile leg runs the VNNI leg's own — so its f32 results are bitwise
//! identical too. Exactness requires the accumulator not to overflow:
//! with operands in `[-128, 127]` any `k ≤ 65534` is safe (`k/2`
//! pair-sums of magnitude ≤ 2·128² against an i32; the VNNI and AMX
//! paths' biased `u8×i8` quad-dots stay within the same bound), far above
//! any critic shape in this stack.
//!
//! # Safety of the tile instructions
//!
//! The AMX intrinsics, `target_feature = "amx-*"` and
//! `is_x86_feature_detected!("amx-*")` are unstable, so the leg is five
//! instructions in `asm!` — `ldtilecfg`, `tileloadd`, `tdpbusd`,
//! `tilestored`, `tilerelease` — and one raw `arch_prctl` system call:
//!
//! - **when they may execute**: only after the once-per-process check
//!   (`CPUID.(7,0):EDX` bits 24/25, the VNNI leg dispatched, Linux granting
//!   `ARCH_REQ_XCOMP_PERM` for the tile data) said yes; a host without AMX
//!   or a refusing kernel never reaches a tile instruction. `ldtilecfg`
//!   runs in [`TileSession::open`] alone, the other three only where the
//!   calling thread's session is recorded in a thread-local, so a tile
//!   operation always meets the configuration it was written for;
//! - **what they read and write**: `tileloadd` reads `rows × 64` bytes —
//!   of the packed tile mirror, of a 64-byte stack row (stride 0), or of
//!   the activation plane, where the dispatcher has checked that 64 bytes
//!   from the start of the last span of the last patch are inside the
//!   slice; `tilestored` writes `rows × 64` bytes of a 64-byte-aligned
//!   stack block. No general or vector register is written, flags are
//!   preserved, and the stack pointer is not used;
//! - **which registers are touched**: `tmm0`–`tmm7`, declared as clobbers.
//!   rustc cannot allocate them (the class is clobber-only), so tile
//!   contents survive from one `asm!` statement to the next, and the
//!   statements, none of them `pure`, keep their order;
//! - **why no tile state outlives a session**: [`TileSession`] is `!Send`
//!   and its `Drop` executes `tilerelease` — on return, on `?`, and when a
//!   panic unwinds — so a thread that parks, yields or exits after a
//!   scoring call carries no live tile data for the kernel to save.
//!
//! Setting the environment variable `VEHIGAN_FORCE_PORTABLE` (to any
//! value, before first use) pins **all** kernel dispatch to the portable
//! instantiations — the CI lever that exercises the portable int8 path
//! on AVX2 hardware. It turns the tile leg off with the VNNI leg it sits
//! under.

use std::cell::RefCell;

/// Depth of one panel of [`gemm_tn`]'s AVX-512 sweep (keeps the panel's
/// rows of `B` L1-resident).
#[cfg(target_arch = "x86_64")]
const KC: usize = 256;

/// Rows of `C` below which [`gemm_nt`] stays on the body's one [`dot`] per
/// output: the AVX-512 leg gathers `B` into strips first, which a product
/// of a few rows does not repay (EXPERIMENTS.md "Training at vector
/// width": break-even between 4 and 8 rows).
#[cfg(target_arch = "x86_64")]
const NT_FEW: usize = 8;

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// Reusable buffer for the `B` strips of [`gemm_nt`]'s AVX-512 leg —
    /// it grows once per thread, so steady-state calls allocate nothing.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Whether `VEHIGAN_FORCE_PORTABLE` pins dispatch to the portable
/// kernels (checked once; a process never switches kernels mid-run).
fn force_portable() -> bool {
    use std::sync::OnceLock;
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| std::env::var_os("VEHIGAN_FORCE_PORTABLE").is_some())
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    use std::sync::OnceLock;
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| {
        !force_portable() && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    })
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| !force_portable() && is_x86_feature_detected!("avx2"))
}

#[cfg(target_arch = "x86_64")]
fn vnni_available() -> bool {
    use std::sync::OnceLock;
    static VNNI: OnceLock<bool> = OnceLock::new();
    *VNNI.get_or_init(|| {
        !force_portable()
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vnni")
    })
}

/// Whether AVX-512F elementwise kernels may be used (respects
/// `VEHIGAN_FORCE_PORTABLE`). Exposed so downstream crates that add
/// their own SIMD fast paths (e.g. activation quantization in
/// `vehigan-lite`) share this crate's dispatch pin — one env var gates
/// every vectorized kernel in the process.
#[cfg(target_arch = "x86_64")]
pub fn avx512_available() -> bool {
    use std::sync::OnceLock;
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| !force_portable() && is_x86_feature_detected!("avx512f"))
}

/// Non-x86 fallback: no AVX-512, portable kernels only.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx512_available() -> bool {
    false
}

/// Whether the f32 products take their AVX-512 legs: AVX-512F beside the
/// AVX2+FMA leg each of them replaces bit for bit.
#[cfg(target_arch = "x86_64")]
fn avx512_fma_available() -> bool {
    avx512_available() && fma_available()
}

/// Which f32 kernel leg this process dispatches — [`gemm`], [`gemm_tn`],
/// [`gemm_nt`] and [`gemm_f32_fused`] alike: `"avx512"`, `"avx2"` or
/// `"portable"`. Read-only — there is no setting.
pub fn f32_leg() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512_fma_available() {
        return "avx512";
    }
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        return "avx2";
    }
    "portable"
}

/// Whether the AMX tile leg may be used: the CPU advertises AMX-TILE and
/// AMX-INT8 (`CPUID.(7,0):EDX` bits 24 and 25), the VNNI leg it forks
/// from is dispatched (so not under `VEHIGAN_FORCE_PORTABLE`), and the
/// kernel granted this process the tile-data state. Decided once, before
/// the first tile instruction; a refusal leaves every product on VNNI.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn amx_available() -> bool {
    use std::sync::OnceLock;
    static AMX: OnceLock<bool> = OnceLock::new();
    *AMX.get_or_init(|| {
        if !vnni_available() {
            return false;
        }
        // AVX-512 implies leaf 7 exists.
        let edx = std::arch::x86_64::__cpuid_count(7, 0).edx;
        edx >> 24 & 1 == 1 && edx >> 25 & 1 == 1 && request_tile_data()
    })
}

/// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`: asks Linux to
/// let this process (every thread of it) use the 8 KiB tile-data state.
/// Idempotent; `false` when the kernel is too old, the feature is masked
/// or a thread's signal stack is too small for the larger frame.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn request_tile_data() -> bool {
    const SYS_ARCH_PRCTL: i64 = 158;
    const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
    const XFEATURE_XTILEDATA: u64 = 18;
    let ret: i64;
    // SAFETY: a raw Linux x86-64 system call that takes two integers and
    // touches no user memory; `syscall` clobbers rcx and r11 (declared)
    // and returns in rax. No libc binding is vendored for it.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Which int8 kernel leg this process dispatches: `"amx"` (tile products
/// inside a [`TileSession`], VNNI for every shape the tiles do not fit),
/// `"vnni"`, `"avx2"` or `"portable"`. Read-only — there is no setting.
pub fn int8_leg() -> &'static str {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if amx_available() {
        return "amx";
    }
    #[cfg(target_arch = "x86_64")]
    if vnni_available() {
        return "vnni";
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return "avx2";
    }
    "portable"
}

thread_local! {
    /// Tile rows of the [`TileSession`] this thread holds, 0 for none.
    static TILE_ROWS: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
    /// Products this thread ran on the tile leg (a wrapping statistic).
    static TILE_SWEEPS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Bytes of one tile row: every tile the leg configures is `rows × 64`
/// bytes — 16 quads of an A row, 16 columns × 4 `k`-steps of a B row, 16
/// i32 lanes of a C row.
const TILE_ROW_BYTES: usize = 64;

/// Bytes of one 16-row tile, the stride of the packed tile mirror.
const TILE_BYTES: usize = 16 * TILE_ROW_BYTES;

/// Narrowest and widest plane row the tile leg takes as one block.
const TILE_WIDTHS: std::ops::RangeInclusive<usize> = 4..=16;

/// Loads the tile shape of a session over `width`-patch plane rows, if
/// the host has the tile leg: palette 1, tiles 0–3 the resident `B` tiles
/// (16 quad rows), 4–5 the `A` tiles and 6–7 the `C` tiles (one row per
/// patch), every row 64 bytes.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn load_tile_config(width: u8) -> bool {
    #[repr(C, align(64))]
    struct TileConfig([u8; 64]);
    if !amx_available() {
        return false;
    }
    let mut cfg = TileConfig([0; 64]);
    cfg.0[0] = 1; // palette
    for t in 0..8 {
        cfg.0[16 + 2 * t] = TILE_ROW_BYTES as u8; // colsb, u16 LE
        cfg.0[48 + t] = if t < 4 { 16 } else { width };
    }
    // SAFETY: AMX-TILE is present and the kernel granted the tile state
    // (`amx_available`); the operand is 64 readable bytes describing a
    // valid palette-1 shape (rows ≤ 16, colsb = 64, reserved bytes zero).
    // The instruction writes only tile state, which rustc never allocates.
    unsafe {
        std::arch::asm!(
            "ldtilecfg [{cfg}]",
            cfg = in(reg) &cfg,
            out("tmm0") _, out("tmm1") _, out("tmm2") _, out("tmm3") _,
            out("tmm4") _, out("tmm5") _, out("tmm6") _, out("tmm7") _,
            options(nostack, readonly, preserves_flags),
        );
    }
    true
}

/// No tile leg off Linux x86-64.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn load_tile_config(_width: u8) -> bool {
    false
}

/// This thread's claim on the AMX tile registers: while one is
/// [active](TileSession::is_active), [`gemm_i8_dequant`] runs the
/// convolution products that fit on the tile leg (see the module docs);
/// without one, or on a host without AMX, everything stays on VNNI and
/// scores the same bits.
///
/// Opening loads the tile configuration (`ldtilecfg`, ≈ 90 ns — open once
/// per scoring call, not per layer) and dropping the guard releases the
/// tiles (`tilerelease`), also when a panic unwinds through it, so no tile
/// state outlives the call: a thread that parks or is switched out
/// afterwards carries no 8 KiB of tile data. The guard is `!Send` — tile
/// state belongs to the thread that loaded it. Opening a second session
/// while one is held returns an inactive guard and changes nothing.
#[derive(Debug)]
pub struct TileSession {
    active: bool,
    _this_thread: std::marker::PhantomData<*const ()>,
}

impl TileSession {
    /// Claims the tiles for products over planes `width` patches wide.
    /// Inactive (and free) when the host has no usable AMX, `width` is
    /// outside `4..=16`, or this thread already holds a session.
    pub fn open(width: usize) -> TileSession {
        let active =
            TILE_WIDTHS.contains(&width) && TILE_ROWS.get() == 0 && load_tile_config(width as u8);
        if active {
            TILE_ROWS.set(width as u8);
            TILE_SWEEPS.set(0);
        }
        TileSession {
            active,
            _this_thread: std::marker::PhantomData,
        }
    }

    /// Whether this guard holds the tiles (and will release them).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Products that ran on the tile leg since this session opened; 0 for
    /// an inactive guard.
    pub fn sweeps(&self) -> u32 {
        if self.active {
            TILE_SWEEPS.get()
        } else {
            0
        }
    }
}

impl Drop for TileSession {
    fn drop(&mut self) {
        if self.active {
            // SAFETY: only an active guard exists where `open` executed
            // `ldtilecfg` on this thread (`!Send`), so AMX is usable;
            // `tilerelease` returns the tile state to its initial value
            // and touches nothing else.
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            unsafe {
                std::arch::asm!(
                    "tilerelease",
                    out("tmm0") _, out("tmm1") _, out("tmm2") _, out("tmm3") _,
                    out("tmm4") _, out("tmm5") _, out("tmm6") _, out("tmm7") _,
                    options(nostack, nomem, preserves_flags),
                );
            }
            TILE_ROWS.set(0);
        }
    }
}

fn check_dims(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert_eq!(a.len(), m * k, "gemm: lhs length {} != {m}×{k}", a.len());
    assert_eq!(b.len(), k * n, "gemm: rhs length {} != {k}×{n}", b.len());
    assert_eq!(c.len(), m * n, "gemm: out length {} != {m}×{n}", c.len());
}

/// `C += A·B` for row-major `a` (`m×k`), `b` (`k×n`), `c` (`m×n`).
///
/// The fused forward sweep of [`gemm_f32_fused`] over `A`'s rows with the
/// accumulating epilogue; per output element the reduction runs in
/// strictly increasing `k` order from the value in `C` (see module docs
/// for the exact determinism guarantees: portable rounds twice per step,
/// the two vector legs fuse and agree bit for bit).
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims(m, k, n, a, b, c);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let layer = FusedF32 {
        spans: 1,
        span_len: k,
        w: b,
        bias: &[],
        alpha: None,
    };
    fused_sweep::<true>(m, a, Patches::matrix(k), &layer, n, c, Patches::matrix(n));
}

/// One `R`-row × `S`-vector block of [`gemm_tn_avx512`]'s `C` held in
/// registers across `kc` steps of the shared dimension: every step is `S`
/// (masked) loads of a row of `B` and `R` broadcasts of `A` feeding `R·S`
/// `vmulps` then `vaddps` (the portable body rounds the product before it
/// adds). Element `(r, kk)` of the block's slice of `A` is at
/// `a[r + kk·m]`.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, `1 ≤ w`, and that the
/// `R × kc` elements of `a` so addressed, `kc` rows of `min(w, 16·S)`
/// floats at `b` (stride `n`) and `R` such rows at `c` (stride `n`) are
/// inside their allocations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn madd_block<const R: usize, const S: usize>(
    kc: usize,
    w: usize,
    a: *const f32,
    m: usize,
    b: *const f32,
    n: usize,
    c: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut mask = [0; S];
    for (s, lanes) in mask.iter_mut().enumerate() {
        *lanes = lane_mask(16.min(w - 16 * s));
    }
    let mut acc = [[_mm512_setzero_ps(); S]; R];
    for (r, block_row) in acc.iter_mut().enumerate() {
        for (s, v) in block_row.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(mask[s], c.add(r * n + 16 * s));
        }
    }
    for kk in 0..kc {
        let mut bv = [_mm512_setzero_ps(); S];
        for (s, v) in bv.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(mask[s], b.add(kk * n + 16 * s));
        }
        for (r, block_row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*a.add(r + kk * m));
            for (x, &bv) in block_row.iter_mut().zip(&bv) {
                *x = _mm512_add_ps(*x, _mm512_mul_ps(av, bv));
            }
        }
    }
    for (r, block_row) in acc.iter().enumerate() {
        for (s, &v) in block_row.iter().enumerate() {
            _mm512_mask_storeu_ps(c.add(r * n + 16 * s), mask[s], v);
        }
    }
}

/// `C += A·Bᵀ` for row-major `a` (`m×k`), `b` (`n×k`), `c` (`m×n`).
///
/// The transpose-free input-gradient kernel: `dX = dY·Wᵀ` calls this with
/// `W` as stored (`[in, out]` order) instead of materializing `Wᵀ`. Both
/// operands are read row-contiguously, so it is a pure dot-product sweep.
/// Every leg performs the fixed eight-lane reduction of [`dot`] per output
/// — deterministic and machine-independent.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs length {} != {m}×{k}", a.len());
    assert_eq!(b.len(), n * k, "gemm_nt: rhs length {} != {n}×{k}", b.len());
    assert_eq!(c.len(), m * n, "gemm_nt: out length {} != {m}×{n}", c.len());
    #[cfg(target_arch = "x86_64")]
    if avx512_fma_available() && m >= NT_FEW && k <= i32::MAX as usize / 16 {
        // SAFETY: guarded by cached runtime detection of avx512f; the
        // asserts above held the slices to the stated dimensions, and the
        // gather's sixteen row offsets `j·k` fit an i32 lane.
        PACK.with(|p| unsafe { gemm_nt_avx512(m, n, k, a, b, c, &mut p.borrow_mut()) });
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // Safety: guarded by cached runtime detection of avx2+fma. Same
        // source as the portable body (no fusion), so results are bitwise
        // identical across the two paths.
        unsafe { gemm_nt_avx2(m, n, k, a, b, c) };
        return;
    }
    gemm_nt_body(m, n, k, a, b, c);
}

#[inline(always)]
fn gemm_nt_body(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        let ar = &a[i * k..(i + 1) * k];
        let cr = &mut c[i * n..(i + 1) * n];
        for (j, cv) in cr.iter_mut().enumerate() {
            *cv += dot(ar, &b[j * k..(j + 1) * k]);
        }
    }
}

/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_nt_avx2(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_body(m, n, k, a, b, c)
}

/// AVX-512 [`gemm_nt`]: sixteen outputs of a row of `C` per vector, each of
/// [`dot`]'s eight lanes a register of its own, so the partial sums, the
/// reduction tree and the tail are all vertical operations and every
/// output is [`dot`]'s operations in [`dot`]'s order — the same bits as
/// [`gemm_nt_body`]. A `k`-step needs `B[j..j + 16][t]` side by side, so
/// `B` is first gathered into `bt` as 16-column strips of `k` such rows
/// (zero-padded past `n`); that costs `n·k` moves against `m·n·k`
/// multiply-adds, which is why [`gemm_nt`] sends a product of a few rows
/// to the body instead.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, that `a`, `b` and `c`
/// hold `m·k`, `n·k` and `m·n` elements, and `16·k ≤ i32::MAX`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_nt_avx512(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bt: &mut Vec<f32>,
) {
    use std::arch::x86_64::*;
    let strips = n.div_ceil(16);
    if bt.len() < strips * k * 16 {
        bt.resize(strips * k * 16, 0.0);
    }
    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let from = _mm512_mullo_epi32(lane, _mm512_set1_epi32(k as i32));
    for s in 0..strips {
        let mask = lane_mask(16.min(n - 16 * s));
        for t in 0..k {
            let column = b.as_ptr().add(16 * s * k + t);
            let row = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), mask, from, column);
            _mm512_storeu_ps(bt.as_mut_ptr().add((s * k + t) * 16), row);
        }
    }
    let mut i0 = 0;
    while i0 < m {
        let rows = (m - i0).min(3);
        for s in 0..strips {
            let (ap, bp) = (a.as_ptr().add(i0 * k), bt.as_ptr().add(s * k * 16));
            let cp = c.as_mut_ptr().add(i0 * n + 16 * s);
            match rows {
                3 => dot_block::<3>(n - 16 * s, n, k, ap, bp, cp),
                2 => dot_block::<2>(n - 16 * s, n, k, ap, bp, cp),
                _ => dot_block::<1>(n - 16 * s, n, k, ap, bp, cp),
            }
        }
        i0 += rows;
    }
}

/// `R` rows × `min(w, 16)` columns of [`gemm_nt_avx512`]: accumulator
/// `[r][l]` is lane `l` of [`dot`] for the sixteen outputs of row `r` — per
/// 8-chunk of `k` one multiply, rounded, then one add — and a row of the
/// strip `bt` is loaded once for the `R` rows it meets. Then, per row,
/// [`dot`]'s tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, the `k % 8` tail
/// summed from zero in order, and `C += tree + tail`.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, `1 ≤ w`, and that `R`
/// rows of `k` floats at `a`, `16·k` floats at `bt` and `R` rows of
/// `min(w, 16)` floats at `c` (stride `n`) are inside their allocations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn dot_block<const R: usize>(
    w: usize,
    n: usize,
    k: usize,
    a: *const f32,
    bt: *const f32,
    c: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 8]; R];
    let whole = k - k % 8;
    for t0 in (0..whole).step_by(8) {
        for l in 0..8 {
            let bv = _mm512_loadu_ps(bt.add((t0 + l) * 16));
            for (r, lanes) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add(r * k + t0 + l));
                lanes[l] = _mm512_add_ps(lanes[l], _mm512_mul_ps(av, bv));
            }
        }
    }
    let mut tail = [_mm512_setzero_ps(); R];
    for t in whole..k {
        let bv = _mm512_loadu_ps(bt.add(t * 16));
        for (r, sum) in tail.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*a.add(r * k + t));
            *sum = _mm512_add_ps(*sum, _mm512_mul_ps(av, bv));
        }
    }
    let mask = lane_mask(16.min(w));
    for (r, (l, &tail)) in acc.iter().zip(&tail).enumerate() {
        let s0 = _mm512_add_ps(_mm512_add_ps(l[0], l[4]), _mm512_add_ps(l[2], l[6]));
        let s1 = _mm512_add_ps(_mm512_add_ps(l[1], l[5]), _mm512_add_ps(l[3], l[7]));
        let dot = _mm512_add_ps(_mm512_add_ps(s0, s1), tail);
        let at = c.add(r * n);
        let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, at), dot);
        _mm512_mask_storeu_ps(at, mask, sum);
    }
}

/// Eight-lane dot product with a fixed reduction tree: deterministic and
/// identical on every ISA, but associated differently from a scalar left
/// fold (lane partials are combined pairwise at the end).
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    const L: usize = 8;
    let mut lanes = [0.0f32; L];
    let mut xc = x.chunks_exact(L);
    let mut yc = y.chunks_exact(L);
    for (xv, yv) in (&mut xc).zip(&mut yc) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += xv[l] * yv[l];
        }
    }
    let mut tail = 0.0f32;
    for (xv, yv) in xc.remainder().iter().zip(yc.remainder()) {
        tail += xv * yv;
    }
    let s0 = (lanes[0] + lanes[4]) + (lanes[2] + lanes[6]);
    let s1 = (lanes[1] + lanes[5]) + (lanes[3] + lanes[7]);
    (s0 + s1) + tail
}

/// `C += Aᵀ·B` for row-major `a` (`k×m`), `b` (`k×n`), `c` (`m×n`).
///
/// The transpose-free weight-gradient kernel: `dW += Xᵀ·dY` calls this
/// with the activations/im2col matrix as stored, accumulating straight
/// into the gradient buffer — no transposed copy, no temporary product.
/// Exactly one unfused multiply-add per output element per `k`-step, in
/// strictly increasing `k`, on every leg: bitwise identical to
/// `a.transpose().matmul(b)` on the portable one.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_tn: lhs length {} != {k}×{m}", a.len());
    assert_eq!(b.len(), k * n, "gemm_tn: rhs length {} != {k}×{n}", b.len());
    assert_eq!(c.len(), m * n, "gemm_tn: out length {} != {m}×{n}", c.len());
    #[cfg(target_arch = "x86_64")]
    if avx512_fma_available() && n > 1 {
        // SAFETY: guarded by cached runtime detection of avx512f; the
        // asserts above held the slices to the stated dimensions.
        unsafe { gemm_tn_avx512(m, n, k, a, b, c) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // Safety: guarded by cached runtime detection of avx2+fma. Same
        // source as the portable body (no fusion), so results are bitwise
        // identical across the two paths.
        unsafe { gemm_tn_avx2(m, n, k, a, b, c) };
        return;
    }
    gemm_tn_body(m, n, k, a, b, c);
}

#[inline(always)]
fn gemm_tn_body(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for kk in 0..k {
        let ar = &a[kk * m..(kk + 1) * m];
        let br = &b[kk * n..(kk + 1) * n];
        if n == 1 {
            // Critic head: dW is a column vector — a straight axpy.
            let bv = br[0];
            for (cv, &av) in c.iter_mut().zip(ar) {
                *cv += av * bv;
            }
        } else {
            for (i, &av) in ar.iter().enumerate() {
                let cr = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in cr.iter_mut().zip(br) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_tn_avx2(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_tn_body(m, n, k, a, b, c)
}

/// AVX-512 [`gemm_tn`]: a block of `C` stays in registers across the `k`
/// sweep that the rank-1 loop of [`gemm_tn_body`] makes through memory.
/// Per element still one multiply, rounded, then one add per `k`-step in
/// increasing `k` from the value in `C` — the same bits. Per `KC`-deep
/// panel of the shared dimension, rows go greedily in [`madd_block`]s of
/// 12, 8, 4, 2 and 1 (every block is whole, so no row is computed and
/// thrown away), columns in pairs of vectors with one masked vector for
/// the last 16 or fewer. The single-column head is not routed here: its
/// update is an axpy along `C`, which the body already does at vector
/// width.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and that `a`, `b` and `c`
/// hold `k·m`, `k·n` and `m·n` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_tn_avx512(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let mut i0 = 0;
        while i0 < m {
            let rows = match m - i0 {
                12.. => 12,
                8.. => 8,
                4.. => 4,
                left => left.min(2),
            };
            for js in (0..n).step_by(32) {
                let w = n - js;
                let ap = a.as_ptr().add(i0 + kb * m);
                let bp = b.as_ptr().add(kb * n + js);
                let cp = c.as_mut_ptr().add(i0 * n + js);
                macro_rules! block {
                    ($r:literal) => {
                        if w > 16 {
                            madd_block::<$r, 2>(kc, w, ap, m, bp, n, cp)
                        } else {
                            madd_block::<$r, 1>(kc, w, ap, m, bp, n, cp)
                        }
                    };
                }
                match rows {
                    12 => block!(12),
                    8 => block!(8),
                    4 => block!(4),
                    2 => block!(2),
                    _ => block!(1),
                }
            }
            i0 += rows;
        }
    }
}

/// The seed repository's i-k-j scalar triple loop, kept verbatim as the
/// reference kernel for property tests and benchmark baselines.
/// `C += A·B` for row-major `a` (`m×k`), `b` (`k×n`), `c` (`m×n`).
///
/// It skips a zero in `A`, so it equals the portable [`gemm`] bit for bit
/// on finite operands only: the sweep adds the `0·∞ = NaN` this loop never
/// forms, and turns a `−0.0` in `C` into `+0.0` by adding `+0.0` to it.
pub fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims(m, k, n, a, b, c);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked out-of-place transpose: `dst[j·m + i] = src[i·n + j]` in 32×32
/// tiles so reads and writes both stay cache-resident.
///
/// # Panics
///
/// Panics if `src`/`dst` lengths differ from `m·n`.
pub fn transpose_into(m: usize, n: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(
        src.len(),
        m * n,
        "transpose: src length {} != {m}×{n}",
        src.len()
    );
    assert_eq!(
        dst.len(),
        m * n,
        "transpose: dst length {} != {m}×{n}",
        dst.len()
    );
    const TILE: usize = 32;
    for it in (0..m).step_by(TILE) {
        let ih = TILE.min(m - it);
        for jt in (0..n).step_by(TILE) {
            let jw = TILE.min(n - jt);
            for i in it..it + ih {
                for j in jt..jt + jw {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

/// Columns per packed int8 strip: one 256-bit `madd` accumulator's worth
/// of i32 lanes.
pub const NR_I8: usize = 8;

/// Columns per packed VNNI strip: one 512-bit `vpdpbusd` accumulator's
/// worth of i32 lanes.
pub const NR_VNNI: usize = 16;

/// Rows per AVX2 micro-kernel pass: 4 rows × 2 strips fill eight of the
/// sixteen YMM registers with accumulators.
#[cfg(target_arch = "x86_64")]
const MR_AVX2: usize = 4;

/// Rows per VNNI micro-kernel pass: 8 rows × 2 strips are sixteen
/// independent `vpdpbusd` chains — enough to cover the instruction's
/// latency on both ports — and every packed-`B` load feeds eight rows.
#[cfg(target_arch = "x86_64")]
const MR_VNNI: usize = 8;

/// Bytes the `n = 1` dot product consumes per step.
const DOT_CHUNK: usize = 64;

/// A weight matrix packed for the int8 micro-kernels.
///
/// The source is a row-major `k × n` i8 matrix (`k` = shared dimension,
/// `n` = output channels). Packing splits the columns into [`NR_I8`]-wide
/// strips and interleaves the shared dimension in pairs: strip `s`,
/// pair `p` stores `[b[2p][j], b[2p+1][j]]` for each column `j` of the
/// strip — sixteen i8 values, exactly one `cvtepi8_epi16` +
/// `madd_epi16` step. The shared dimension is `spans` runs of `span_len`
/// rows; pairs (and the VNNI mirror's quads) never straddle two spans.
/// Ragged edges (odd `span_len`, `n` not a multiple of [`NR_I8`]) are
/// zero-padded, which is exact for integer accumulation.
///
/// Packing happens **once** per weight matrix (at quantized-model compile
/// time); every inference call then reads the packed form directly — the
/// f32 kernels, by contrast, repack `B` on every call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedI8 {
    k: usize,
    n: usize,
    spans: usize,
    span_len: usize,
    /// `[n_strips][spans · span_pairs][NR_I8 · 2]`, pair-interleaved as
    /// above.
    data: Vec<i8>,
    /// `[n_strips16][spans · span_quads][NR_VNNI · 4]`, quad-interleaved:
    /// strip `s`, quad `q` stores `[b[4q][j], …, b[4q+3][j]]` for each of
    /// the strip's 16 columns — one 512-bit `vpdpbusd` step. A runtime
    /// acceleration mirror of `data` (not counted as artifact bytes);
    /// zero-padded at ragged edges, exact for integer math.
    quad: Vec<i8>,
    /// `[n_strips16][spans][16][NR_VNNI · 4]`: `quad` again with every
    /// (strip, span) zero-padded to 16 quad rows — a quad row is already a
    /// `tdpbusd` B-tile row, so each 1 KiB chunk loads as one tile. Only
    /// for shapes the AMX leg takes (see `tile_mirror`), empty otherwise;
    /// like `quad`, a runtime mirror that is not artifact bytes.
    tile: Vec<i8>,
    /// Per-column sums `Σ_k b[k][j]`: the exact correction for running
    /// `vpdpbusd`'s unsigned×signed form on biased activations
    /// (`Σ(a+128)·b = Σa·b + 128·S_j`).
    col_sums: Vec<i32>,
    /// The matrix itself in plain `k` order, zero-padded to a whole
    /// [`DOT_CHUNK`], when it is a single unspanned column: such a
    /// product is a dot per row, and a strip layout would stream 16× the
    /// bytes for one useful lane. Empty otherwise.
    column: Vec<i8>,
}

impl PackedI8 {
    /// Packs a row-major `k × n` i8 matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k·n`.
    pub fn pack(k: usize, n: usize, b: &[i8]) -> PackedI8 {
        PackedI8::pack_spans(1, k, n, b)
    }

    /// Packs a row-major `(spans · span_len) × n` i8 matrix whose shared
    /// dimension the left operand supplies as `spans` separate runs of
    /// `span_len` bytes (see [`Patches`]) — a `[ky][kx·cin]` convolution
    /// kernel is `kh` spans of `kw·cin`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != spans·span_len·n`.
    pub fn pack_spans(spans: usize, span_len: usize, n: usize, b: &[i8]) -> PackedI8 {
        let k = spans * span_len;
        assert_eq!(b.len(), k * n, "pack: matrix length {} != {k}×{n}", b.len());
        let mut packed = PackedI8 {
            k,
            n,
            spans,
            span_len,
            data: Vec::new(),
            quad: Vec::new(),
            tile: Vec::new(),
            col_sums: vec![0i32; n],
            column: Vec::new(),
        };
        packed.data = packed.interleave(b, 2, NR_I8);
        packed.quad = packed.interleave(b, 4, NR_VNNI);
        packed.tile = packed.tile_mirror();
        for row in b.chunks_exact(n.max(1)) {
            for (s, &v) in packed.col_sums.iter_mut().zip(row) {
                *s += v as i32;
            }
        }
        if packed.is_column() {
            packed.column = b.to_vec();
            packed.column.resize(k.div_ceil(DOT_CHUNK) * DOT_CHUNK, 0);
        }
        packed
    }

    /// `[n.div_ceil(nr)][spans · span_len.div_ceil(group)][nr · group]`:
    /// `group` consecutive rows of one span side by side per column.
    fn interleave(&self, b: &[i8], group: usize, nr: usize) -> Vec<i8> {
        let per_span = self.span_len.div_ceil(group);
        let n_strips = self.n.div_ceil(nr);
        let mut out = vec![0i8; n_strips * self.spans * per_span * nr * group];
        for s in 0..n_strips {
            let js = s * nr;
            let width = nr.min(self.n - js);
            for span in 0..self.spans {
                for g in 0..per_span {
                    let base = ((s * self.spans + span) * per_span + g) * nr * group;
                    for t in 0..group.min(self.span_len - g * group) {
                        let row = span * self.span_len + g * group + t;
                        for j in 0..width {
                            out[base + group * j + t] = b[row * self.n + js + j];
                        }
                    }
                }
            }
        }
        out
    }

    /// The B tiles of the AMX leg, for the shapes it is worth on: at most
    /// two spans and two strips (four resident tiles), spans of 16 to 64
    /// bytes (a shorter one — the critic's layer 0, `k = 4` — is faster on
    /// VNNI; a longer one does not fit a tile row), not a dot-product
    /// column.
    fn tile_mirror(&self) -> Vec<i8> {
        let strips = self.n.div_ceil(NR_VNNI);
        let fits = !self.is_column()
            && (1..=2).contains(&self.spans)
            && (1..=2).contains(&strips)
            && (16..=TILE_ROW_BYTES).contains(&self.span_len);
        if !fits {
            return Vec::new();
        }
        let span = self.span_len.div_ceil(4) * NR_VNNI * 4;
        let mut out = vec![0i8; strips * self.spans * TILE_BYTES];
        for (src, dst) in self
            .quad
            .chunks_exact(span)
            .zip(out.chunks_exact_mut(TILE_BYTES))
        {
            dst[..span].copy_from_slice(src);
        }
        out
    }

    /// Shared dimension `k` of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count `n` of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed representation.
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Whether products against this matrix take the dot-product path.
    fn is_column(&self) -> bool {
        self.n == 1 && self.spans == 1
    }

    /// Bytes of one span as the kernels read it: padded to a whole quad,
    /// the widest group any leg loads.
    fn span_bytes(&self) -> usize {
        self.span_len.div_ceil(4) * 4
    }
}

/// Where the rows of a left operand live inside a plane, in elements
/// (bytes for the int8 kernels, floats for [`gemm_f32_fused`]).
///
/// Row `r`'s span `s` starts at element
/// `(r / width + s)·row_stride + (r % width)·col_stride`. For a
/// same-padded convolution over a padded `[h + kh − 1, w + kw − 1, cin]`
/// plane that is `width = w`, `row_stride = (w + kw − 1)·cin`,
/// `col_stride = cin`: output pixel `(y, x)` reads `kh` spans of `kw·cin`
/// elements, one per kernel row, exactly where the plane holds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Patches {
    /// Rows of the left operand per plane row.
    pub width: usize,
    /// Elements between plane rows, and between a row's successive spans.
    pub row_stride: usize,
    /// Elements between horizontally adjacent rows of the left operand.
    pub col_stride: usize,
}

impl Patches {
    /// A plain row-major matrix with `k` elements per row.
    pub fn matrix(k: usize) -> Patches {
        Patches {
            width: 1,
            row_stride: k,
            col_stride: 0,
        }
    }

    /// Where row `r` starts (its first span, for a left operand).
    pub fn offset(&self, r: usize) -> usize {
        (r / self.width) * self.row_stride + (r % self.width) * self.col_stride
    }

    /// One past the last element a sweep of `rows` rows of `spans` spans
    /// touches when it reads `span_len` elements of each. Every kernel leg
    /// stays below it; the int8 vector legs read whole quads, so they pass
    /// [`PackedI8::span_bytes`] rather than the span length.
    fn extent(&self, rows: usize, spans: usize, span_len: usize) -> usize {
        if rows == 0 || spans == 0 {
            return 0;
        }
        let last = rows - 1;
        (last / self.width + spans - 1) * self.row_stride
            + last.min(self.width - 1) * self.col_stride
            + span_len
    }
}

/// The XOR mask quantized activations must carry for [`gemm_i8_dequant`]:
/// `0x80` (`a + 128` as u8, what `vpdpbusd` multiplies) when the VNNI
/// kernel is dispatched, `0` (plain two's-complement i8) otherwise.
/// Padding bytes of a plane hold the mask itself — a biased zero.
pub fn i8_activation_bias() -> u8 {
    #[cfg(target_arch = "x86_64")]
    if vnni_available() {
        return 0x80;
    }
    0
}

/// Per-column dequantization applied to a finished accumulator block:
/// `acc as f32 · mult[j] + bias[j]`, then select-form LeakyReLU
/// (`v > 0 ? v : α·v`) when `alpha` is set.
#[derive(Debug, Clone, Copy)]
pub struct Dequant<'a> {
    /// Per-column multipliers (activation scale × weight scale).
    pub mult: &'a [f32],
    /// Per-column float bias.
    pub bias: &'a [f32],
    /// LeakyReLU slope, if the layer has a fused activation.
    pub alpha: Option<f32>,
}

/// What a micro-kernel does with a finished register block.
enum Sink<'a> {
    /// `c[row·n + j] += acc` — the plain GEMM contract.
    Accumulate(&'a mut [i32]),
    /// `dst[row·n + j] = dequant(acc)`, remembering the largest `|dst|`
    /// written (NaN skipped, like an ordered-compare scan).
    Dequant {
        epi: Dequant<'a>,
        dst: &'a mut [f32],
        max_abs: f32,
    },
}

impl Sink<'_> {
    /// Finishes exact accumulators for columns `j0..j0 + acc.len()` of
    /// `row`. The scalar body every leg's result is defined by.
    #[inline(always)]
    fn finish(&mut self, n: usize, row: usize, j0: usize, acc: &[i32]) {
        let at = row * n + j0;
        match self {
            Sink::Accumulate(c) => {
                for (cv, &a) in c[at..at + acc.len()].iter_mut().zip(acc) {
                    *cv += a;
                }
            }
            Sink::Dequant { epi, dst, max_abs } => {
                let cols = j0..j0 + acc.len();
                let params = epi.mult[cols.clone()].iter().zip(&epi.bias[cols]);
                for ((d, &a), (&mu, &b)) in dst[at..at + acc.len()].iter_mut().zip(acc).zip(params)
                {
                    let v = a as f32 * mu + b;
                    // Select-form LeakyReLU — a single blend per lane;
                    // the max+min form costs two maxnum NaN-checked ops.
                    let v = match epi.alpha {
                        Some(alpha) => {
                            if v > 0.0 {
                                v
                            } else {
                                alpha * v
                            }
                        }
                        None => v,
                    };
                    *d = v;
                    // Ordered compare, not `f32::max`: NaN never wins.
                    let mag = v.abs();
                    if mag > *max_abs {
                        *max_abs = mag;
                    }
                }
            }
        }
    }

    /// Folds a vector leg's lane-wise max tracker into the scalar one.
    fn fold_max(&mut self, lanes_max: f32) {
        if let Sink::Dequant { max_abs, .. } = self {
            if lanes_max > *max_abs {
                *max_abs = lanes_max;
            }
        }
    }

    /// Finishes `R` rows of one VNNI strip straight from the (exact)
    /// accumulator registers: either adds into `C` or dequantizes with
    /// exactly the scalar sequence of [`Sink::finish`] per lane — convert,
    /// multiply, add (separate, not FMA: the scalar body rounds twice),
    /// ordered-greater blend — so the result is bitwise identical, ±0 and
    /// NaN included. `max` tracks `|v|` per lane, row `r` in tracker
    /// `r % M`: one tracker is a 4-cycle `vmaxps` chain per row, which the
    /// VNNI product hides and the tile leg (no vector work between its
    /// rows) spreads over four. Every tracker is the *second* operand,
    /// which `vmaxps` returns when the first is NaN — the scalar compare's
    /// skip — so none ever holds a NaN.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports AVX-512F, rows `r0..r0 + R`
    /// exist in the sink, and `strip` is a valid strip index of `b`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn finish_zmm<const R: usize, const M: usize>(
        &mut self,
        b: &PackedI8,
        r0: usize,
        strip: usize,
        acc: &[std::arch::x86_64::__m512i; R],
        max: &mut [std::arch::x86_64::__m512; M],
    ) {
        use std::arch::x86_64::*;
        let n = b.n;
        let js = strip * NR_VNNI;
        let width = NR_VNNI.min(n - js);
        let mask = lane_mask(width);
        match self {
            Sink::Accumulate(c) => {
                debug_assert!((r0 + R) * n <= c.len());
                for (r, accr) in acc.iter().enumerate() {
                    let cp = c.as_mut_ptr().add((r0 + r) * n + js);
                    let cv = _mm512_maskz_loadu_epi32(mask, cp);
                    let sum = _mm512_add_epi32(cv, *accr);
                    _mm512_mask_storeu_epi32(cp, mask, sum);
                }
            }
            Sink::Dequant { epi, dst, .. } => {
                debug_assert!((r0 + R) * n <= dst.len());
                let mv = _mm512_maskz_loadu_ps(mask, epi.mult.as_ptr().add(js));
                let bv = _mm512_maskz_loadu_ps(mask, epi.bias.as_ptr().add(js));
                let zero = _mm512_setzero_ps();
                for (r, accr) in acc.iter().enumerate() {
                    let v = _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(*accr), mv), bv);
                    let v = match epi.alpha {
                        Some(alpha) => {
                            let leak = _mm512_mul_ps(v, _mm512_set1_ps(alpha));
                            let pos = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, zero);
                            _mm512_mask_mov_ps(leak, pos, v)
                        }
                        None => v,
                    };
                    _mm512_mask_storeu_ps(dst.as_mut_ptr().add((r0 + r) * n + js), mask, v);
                    let max = &mut max[r % M];
                    *max = _mm512_mask_max_ps(*max, mask, _mm512_abs_ps(v), *max);
                }
            }
        }
    }
}

/// The AVX-512 write mask selecting the first `width ≤ 16` lanes.
#[cfg(target_arch = "x86_64")]
fn lane_mask(width: usize) -> std::arch::x86_64::__mmask16 {
    ((1u32 << width) - 1) as u16
}

/// Reinterprets unbiased activation bytes as the i8 values they encode.
fn as_i8(bytes: &[u8]) -> &[i8] {
    // SAFETY: u8 and i8 have identical size, alignment and validity.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<i8>(), bytes.len()) }
}

/// `C += A·B` for row-major i8 `a` (`m×k`) against a pre-packed `b`,
/// accumulating into i32 `c` (`m×n`).
///
/// Dispatches to the VNNI or AVX2 kernel when available, the portable
/// kernel otherwise; all produce **bitwise-identical** i32 accumulators
/// (integer arithmetic is exact — see module docs for the no-overflow
/// bound `k ≤ 65534`).
///
/// # Panics
///
/// Panics if `a`/`c` lengths disagree with `m` and the packed dimensions.
pub fn gemm_i8(m: usize, a: &[i8], b: &PackedI8, c: &mut [i32]) {
    check_dims_i8(m, a, b, c);
    if m == 0 || b.n == 0 || b.k == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if vnni_available() {
        // Safety: guarded by cached runtime detection of avx512f+vnni.
        unsafe { gemm_i8_vnni(m, a, b, c) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // Safety: guarded by cached runtime detection of avx2; `a` holds
        // every row `Patches::matrix` addresses (checked above).
        unsafe { sweep_avx2(m, a, Patches::matrix(b.k), b, &mut Sink::Accumulate(c)) };
        return;
    }
    sweep_portable(m, a, Patches::matrix(b.k), b, &mut Sink::Accumulate(c));
}

fn check_dims_i8(m: usize, a: &[i8], b: &PackedI8, c: &[i32]) {
    // The patch sweeps address `a` by `Patches::matrix(k)`, which only
    // describes a matrix whose shared dimension is one span.
    assert_eq!(b.spans, 1, "gemm_i8: rhs was packed in spans");
    assert_eq!(
        a.len(),
        m * b.k,
        "gemm_i8: lhs length {} != {m}×{}",
        a.len(),
        b.k
    );
    assert_eq!(
        c.len(),
        m * b.n,
        "gemm_i8: out length {} != {m}×{}",
        c.len(),
        b.n
    );
}

/// The portable [`gemm_i8`]. Public within the crate's test surface so
/// property tests can pin portable-vs-dispatched equality.
pub fn gemm_i8_portable(m: usize, a: &[i8], b: &PackedI8, c: &mut [i32]) {
    check_dims_i8(m, a, b, c);
    sweep_portable(m, a, Patches::matrix(b.k), b, &mut Sink::Accumulate(c));
}

/// The fused layer product: `dst[r·n + j] = dequant(Σ_k a[r][k]·b[k][j])`
/// for `rows` rows of quantized activations addressed by `patches` inside
/// `plane`, returning the largest `|dst|` written (0 when every output is
/// zero or NaN) — the next layer's range-guard input, tracked in the
/// epilogue so nothing rescans `dst`.
///
/// `plane` holds activations quantized to `[-127, 127]` and XORed with
/// [`i8_activation_bias`]. The accumulators are exact and the epilogue
/// performs one IEEE multiply and one add per element on every leg, so
/// `dst` is bitwise identical across the portable, AVX2, VNNI and AMX
/// kernels. The AMX leg is taken when the calling thread holds a
/// [`TileSession`] opened for `patches.width` and the shape fits (module
/// docs); it reads 64 bytes from the start of every span, so a plane
/// with fewer readable bytes than that after its last patch is multiplied
/// on the VNNI leg instead — never read out of bounds, never refused.
///
/// # Panics
///
/// Panics if `epi`/`dst` lengths disagree with `rows` and `b.n()`, or
/// `plane` is shorter than the bytes `patches` addresses — whole quads:
/// the last span of the last row must have `span_len` rounded up to a
/// multiple of 4 readable bytes (their values beyond `span_len` are
/// multiplied by zero weights).
pub fn gemm_i8_dequant(
    rows: usize,
    plane: &[u8],
    patches: Patches,
    b: &PackedI8,
    epi: Dequant<'_>,
    dst: &mut [f32],
) -> f32 {
    assert_eq!(epi.mult.len(), b.n, "gemm_i8_dequant: mult length");
    assert_eq!(epi.bias.len(), b.n, "gemm_i8_dequant: bias length");
    assert_eq!(dst.len(), rows * b.n, "gemm_i8_dequant: out length");
    assert!(patches.width > 0, "gemm_i8_dequant: zero patch width");
    let mut sink = Sink::Dequant {
        epi,
        dst,
        max_abs: 0.0,
    };
    sweep(rows, plane, patches, b, &mut sink);
    let Sink::Dequant { max_abs, .. } = sink else {
        unreachable!("sink was built as Dequant above")
    };
    max_abs
}

/// Runs the dispatched micro-kernel sweep over a plane whose bytes carry
/// [`i8_activation_bias`] and cover the extent of `rows` quad-padded patches.
fn sweep(rows: usize, plane: &[u8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    assert!(
        plane.len() >= p.extent(rows, b.spans, b.span_bytes()),
        "int8 plane too short"
    );
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if tiles_fit(rows, plane.len(), p, b) {
        // SAFETY: `tiles_fit` saw this thread's open session (so AMX and,
        // under it, AVX-512 are usable and the tile shape is `p.width`
        // rows), the tile mirror, whole plane rows, and 64 readable bytes
        // from the start of every span.
        unsafe { sweep_amx(rows, plane, p, b, sink) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if vnni_available() {
        // Safety: guarded by cached runtime detection of avx512f+vnni;
        // the extent check above covers every byte the sweep reads.
        unsafe { sweep_vnni(rows, plane, p, b, sink) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // Safety: guarded by cached runtime detection of avx2.
        unsafe { sweep_avx2(rows, as_i8(plane), p, b, sink) };
        return;
    }
    sweep_portable(rows, as_i8(plane), p, b, sink);
}

/// Scalar i8·i8 dot product (the AVX2 and portable `n = 1` path).
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Portable micro-kernel sweep: one row × one [`NR_I8`] strip at a time
/// over the pair-interleaved layout.
fn sweep_portable(rows: usize, a: &[i8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    let n = b.n;
    if b.is_column() {
        for r in 0..rows {
            let row = &a[p.offset(r)..][..b.k];
            sink.finish(n, r, 0, &[dot_i8(row, &b.column)]);
        }
        return;
    }
    let pairs = b.span_len.div_ceil(2);
    let strip_len = b.spans * pairs * NR_I8 * 2;
    for r in 0..rows {
        let base = p.offset(r);
        for s in 0..n.div_ceil(NR_I8) {
            let strip = &b.data[s * strip_len..][..strip_len];
            let mut acc = [0i32; NR_I8];
            for span in 0..b.spans {
                let arow = &a[base + span * p.row_stride..][..b.span_len];
                let bspan = &strip[span * pairs * NR_I8 * 2..][..pairs * NR_I8 * 2];
                for (pi, pb) in bspan.chunks_exact(NR_I8 * 2).enumerate() {
                    let a0 = arow[2 * pi] as i32;
                    let a1 = arow.get(2 * pi + 1).map_or(0, |&v| v as i32);
                    for (j, cell) in acc.iter_mut().enumerate() {
                        *cell += a0 * pb[2 * j] as i32 + a1 * pb[2 * j + 1] as i32;
                    }
                }
            }
            let js = s * NR_I8;
            sink.finish(n, r, js, &acc[..NR_I8.min(n - js)]);
        }
    }
}

/// Sign-extends one span of i8 activations into pair-interleaved i16
/// values viewed as one i32 per pair: `dst[p] = (a[2p+1] ⊔ a[2p])`, with
/// an implicit zero for the dangling element of an odd length. This is
/// the exact operand layout `madd_epi16` wants broadcast across its
/// lanes, built once per row instead of reconstructed per strip × per
/// pair.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and `dst.len() == row.len().div_ceil(2)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn extend_row_pairs(row: &[i8], dst: &mut [i32]) {
    use std::arch::x86_64::*;
    let k = row.len();
    debug_assert_eq!(dst.len(), k.div_ceil(2));
    let mut j = 0;
    let mut p = 0;
    while j + 16 <= k {
        // 16 i8 → 16 i16 = 8 sign-extended pairs in one shot.
        let v = _mm_loadu_si128(row.as_ptr().add(j) as *const __m128i);
        let w = _mm256_cvtepi8_epi16(v);
        _mm256_storeu_si256(dst.as_mut_ptr().add(p) as *mut __m256i, w);
        j += 16;
        p += 8;
    }
    while j + 2 <= k {
        let a0 = row[j] as i16 as u16 as u32;
        let a1 = row[j + 1] as i16 as u16 as u32;
        dst[p] = ((a1 << 16) | a0) as i32;
        j += 2;
        p += 1;
    }
    if j < k {
        dst[p] = (row[j] as i16 as u16) as i32;
    }
}

/// AVX2 micro-kernel sweep: per row block the patches are sign-extended
/// once into pair-interleaved i16 ([`extend_row_pairs`], span by span, so
/// a patch scattered over `kh` plane rows becomes one contiguous run),
/// then each inner step is a single broadcast load + `madd_epi16` +
/// `add_epi32` against the pre-packed weight strips — two strips at a
/// time so every activation broadcast feeds sixteen output columns. The
/// row count is a const generic, so short blocks do exactly their own
/// work instead of a padded 4-row pass. Exact integer arithmetic ⇒
/// bitwise identical to the portable kernel.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and `a` covers
/// the patch extent `sweep` checks (span tails excepted: this leg reads exactly
/// `span_len` bytes per span).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2(rows: usize, a: &[i8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    if b.is_column() {
        for r in 0..rows {
            let row = &a[p.offset(r)..][..b.k];
            sink.finish(b.n, r, 0, &[dot_i8(row, &b.column)]);
        }
        return;
    }
    // Reused pair-extension scratch: one row block per live call.
    thread_local! {
        static A16: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
    }
    A16.with(|cell| {
        let mut a16 = cell.take();
        let k_pairs = b.spans * b.span_len.div_ceil(2);
        if a16.len() < MR_AVX2 * k_pairs {
            a16.resize(MR_AVX2 * k_pairs, 0);
        }
        let mut r0 = 0;
        while r0 < rows {
            let h = MR_AVX2.min(rows - r0);
            match h {
                4 => avx2_block::<4>(r0, a, p, b, sink, &mut a16),
                3 => avx2_block::<3>(r0, a, p, b, sink, &mut a16),
                2 => avx2_block::<2>(r0, a, p, b, sink, &mut a16),
                _ => avx2_block::<1>(r0, a, p, b, sink, &mut a16),
            }
            r0 += h;
        }
        cell.replace(a16);
    });
}

/// One `R`-row block of the AVX2 sweep (`R ≤` [`MR_AVX2`]).
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2, rows `r0..r0 + R` exist,
/// and `a16.len() ≥ R · spans · span_len.div_ceil(2)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_block<const R: usize>(
    r0: usize,
    a: &[i8],
    p: Patches,
    b: &PackedI8,
    sink: &mut Sink<'_>,
    a16: &mut [i32],
) {
    use std::arch::x86_64::*;
    let n = b.n;
    let pairs = b.span_len.div_ceil(2);
    let k_pairs = b.spans * pairs;
    let n_strips = n.div_ceil(NR_I8);
    for (r, base) in block_offsets::<R>(p, r0, R).into_iter().enumerate() {
        for span in 0..b.spans {
            extend_row_pairs(
                &a[base + span * p.row_stride..][..b.span_len],
                &mut a16[r * k_pairs + span * pairs..][..pairs],
            );
        }
    }
    let mut s = 0;
    // Two-strip main kernel: R rows × 16 columns per pass.
    while s + 2 <= n_strips {
        let strip0 = b.data.as_ptr().add(s * k_pairs * NR_I8 * 2);
        let strip1 = b.data.as_ptr().add((s + 1) * k_pairs * NR_I8 * 2);
        let mut acc0 = [_mm256_setzero_si256(); R];
        let mut acc1 = [_mm256_setzero_si256(); R];
        for q in 0..k_pairs {
            let b0 =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(strip0.add(q * NR_I8 * 2) as *const __m128i));
            let b1 =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(strip1.add(q * NR_I8 * 2) as *const __m128i));
            for r in 0..R {
                let ap = _mm256_set1_epi32(*a16.get_unchecked(r * k_pairs + q));
                acc0[r] = _mm256_add_epi32(acc0[r], _mm256_madd_epi16(ap, b0));
                acc1[r] = _mm256_add_epi32(acc1[r], _mm256_madd_epi16(ap, b1));
            }
        }
        finish_ymm(sink, n, r0, s, &acc0);
        finish_ymm(sink, n, r0, s + 1, &acc1);
        s += 2;
    }
    if s < n_strips {
        let strip = b.data.as_ptr().add(s * k_pairs * NR_I8 * 2);
        let mut acc = [_mm256_setzero_si256(); R];
        for q in 0..k_pairs {
            let bv =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(strip.add(q * NR_I8 * 2) as *const __m128i));
            for (r, accr) in acc.iter_mut().enumerate() {
                let ap = _mm256_set1_epi32(*a16.get_unchecked(r * k_pairs + q));
                *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(ap, bv));
            }
        }
        finish_ymm(sink, n, r0, s, &acc);
    }
}

/// Hands `R` rows of one AVX2 strip to [`Sink::finish`], clipping to the
/// ragged strip width at the matrix edge.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn finish_ymm<const R: usize>(
    sink: &mut Sink<'_>,
    n: usize,
    r0: usize,
    s: usize,
    acc: &[std::arch::x86_64::__m256i; R],
) {
    use std::arch::x86_64::*;
    let js = s * NR_I8;
    let mut lanes = [0i32; NR_I8];
    for (r, accr) in acc.iter().enumerate() {
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, *accr);
        sink.finish(n, r0 + r, js, &lanes[..NR_I8.min(n - js)]);
    }
}

/// [`gemm_i8`] on the VNNI leg: `vpdpbusd` wants unsigned left operands,
/// so each block of [`MR_VNNI`] rows is biased (`a XOR 0x80 = a + 128`)
/// into a quad-padded scratch and swept from there.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and AVX-512 VNNI and the
/// operand lengths passed [`check_dims_i8`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn gemm_i8_vnni(m: usize, a: &[i8], b: &PackedI8, c: &mut [i32]) {
    // Reused biased scratch: one row block per live call.
    thread_local! {
        static BIASED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    BIASED.with(|cell| {
        let mut biased = cell.take();
        let (k, n) = (b.k, b.n);
        let stride = b.span_bytes();
        // Pad bytes keep the bias of zero; the packed `B` is zero there,
        // so the product contributes nothing either way.
        biased.clear();
        biased.resize(MR_VNNI * stride, 0x80);
        let mut r0 = 0;
        while r0 < m {
            let h = MR_VNNI.min(m - r0);
            for (row, dst) in a[r0 * k..(r0 + h) * k]
                .chunks_exact(k)
                .zip(biased.chunks_exact_mut(stride))
            {
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d = v as u8 ^ 0x80;
                }
            }
            let mut sink = Sink::Accumulate(&mut c[r0 * n..(r0 + h) * n]);
            sweep_vnni(h, &biased, Patches::matrix(stride), b, &mut sink);
            r0 += h;
        }
        cell.replace(biased);
    });
}

/// AVX-512 VNNI micro-kernel sweep over biased (`a + 128`) activations
/// read in place. Each inner step is one `vpdpbusd` — sixteen output
/// columns × four `k`-steps per instruction — whose left operand is a
/// 4-byte broadcast straight from the plane. The four 16-bit products are
/// summed into the i32 lane without saturation, so the whole path is
/// exact integer arithmetic ⇒ bitwise identical to the portable kernel.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and AVX-512 VNNI, `a`
/// covers the patch extent `sweep` checks, and the sink holds `rows` rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn sweep_vnni(rows: usize, a: &[u8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= p.extent(rows, b.spans, b.span_bytes()));
    if b.is_column() {
        let corr = b.col_sums[0] << 7;
        for r in 0..rows {
            let dot = dot_vnni(&a[p.offset(r)..][..b.k], &b.column);
            sink.finish(b.n, r, 0, &[dot - corr]);
        }
        return;
    }
    let mut max = [_mm512_setzero_ps()];
    let mut r0 = 0;
    while r0 < rows {
        let left = rows - r0;
        let h = if left >= MR_VNNI {
            vnni_block::<MR_VNNI>(r0, a, p, b, sink, &mut max);
            MR_VNNI
        } else if left >= 4 {
            vnni_block::<4>(r0, a, p, b, sink, &mut max);
            4
        } else if left >= 2 {
            vnni_block::<2>(r0, a, p, b, sink, &mut max);
            2
        } else {
            vnni_block::<1>(r0, a, p, b, sink, &mut max);
            1
        };
        r0 += h;
    }
    sink.fold_max(_mm512_reduce_max_ps(max[0]));
}

/// `Σ a[i]·b[i]` over biased u8 `a` and a [`DOT_CHUNK`]-padded i8 column,
/// 64 products per `vpdpbusd` on four independent accumulators. The
/// ragged tail goes through a zeroed stack copy (zero × zero padding).
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and AVX-512 VNNI and
/// `col.len() == a.len()` rounded up to a multiple of [`DOT_CHUNK`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn dot_vnni(a: &[u8], col: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(col.len(), a.len().div_ceil(DOT_CHUNK) * DOT_CHUNK);
    let mut acc = [_mm512_setzero_si512(); 4];
    let (chunks, tail) = a.as_chunks::<DOT_CHUNK>();
    for (i, chunk) in chunks.iter().enumerate() {
        let av = _mm512_loadu_si512(chunk.as_ptr() as *const __m512i);
        let bv = _mm512_loadu_si512(col.as_ptr().add(i * DOT_CHUNK) as *const __m512i);
        acc[i % 4] = _mm512_dpbusd_epi32(acc[i % 4], av, bv);
    }
    if !tail.is_empty() {
        let mut last = [0u8; DOT_CHUNK];
        last[..tail.len()].copy_from_slice(tail);
        let av = _mm512_loadu_si512(last.as_ptr() as *const __m512i);
        let bv = _mm512_loadu_si512(col.as_ptr().add(chunks.len() * DOT_CHUNK) as *const __m512i);
        acc[0] = _mm512_dpbusd_epi32(acc[0], av, bv);
    }
    let sum = _mm512_add_epi32(
        _mm512_add_epi32(acc[0], acc[1]),
        _mm512_add_epi32(acc[2], acc[3]),
    );
    _mm512_reduce_add_epi32(sum)
}

/// One `R`-row block of the VNNI sweep (`R ≤` [`MR_VNNI`]) across every
/// strip. Strips go in pairs: both share one broadcast of each activation
/// quad, and the `2·R` independent `vpdpbusd` chains hide the
/// instruction's latency.
///
/// # Safety
///
/// As [`sweep_vnni`], with rows `r0..r0 + R` in range.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn vnni_block<const R: usize>(
    r0: usize,
    a: &[u8],
    p: Patches,
    b: &PackedI8,
    sink: &mut Sink<'_>,
    max: &mut [std::arch::x86_64::__m512; 1],
) {
    let base = block_offsets::<R>(p, r0, R).map(|at| a.as_ptr().add(at));
    let n_strips = b.n.div_ceil(NR_VNNI);
    let mut s = 0;
    while s + 2 <= n_strips {
        let acc = vnni_strips::<R, 2>(&base, p.row_stride, b, s);
        sink.finish_zmm(b, r0, s, &acc[0], max);
        sink.finish_zmm(b, r0, s + 1, &acc[1], max);
        s += 2;
    }
    if s < n_strips {
        let acc = vnni_strips::<R, 1>(&base, p.row_stride, b, s);
        sink.finish_zmm(b, r0, s, &acc[0], max);
    }
}

/// Where the accumulators of `strip`'s 16 columns start on the legs that
/// multiply biased (`a + 128`) activations: `−128·S_j`, zero past column
/// `n`.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and `strip` is a VNNI
/// strip of `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn unbiased_start(b: &PackedI8, strip: usize) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let js = strip * NR_VNNI;
    let live = lane_mask(NR_VNNI.min(b.n - js));
    let sums = _mm512_maskz_loadu_epi32(live, b.col_sums.as_ptr().add(js));
    _mm512_sub_epi32(_mm512_setzero_si512(), _mm512_slli_epi32::<7>(sums))
}

/// The `vpdpbusd` core: `R` patches × `S` adjacent strips, returning the
/// exact accumulators `[strip][row]`. Each starts at `−128·S_j` rather
/// than zero, which undoes the activations' u8 bias
/// (`Σ(a+128)·b − 128·S_j = Σ a·b`; i32 wrap-around on the way is
/// harmless, the final value is in range) without an epilogue subtract.
///
/// # Safety
///
/// As [`sweep_vnni`]: every `base[r]` must have `spans` spans of
/// [`PackedI8::span_bytes`] readable bytes `row_stride` apart, and strips
/// `s..s + S` must exist.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
unsafe fn vnni_strips<const R: usize, const S: usize>(
    base: &[*const u8; R],
    row_stride: usize,
    b: &PackedI8,
    s: usize,
) -> [[std::arch::x86_64::__m512i; R]; S] {
    use std::arch::x86_64::*;
    const STEP: usize = NR_VNNI * 4;
    let quads = b.span_len.div_ceil(4);
    let strip_len = b.spans * quads * STEP;
    let strip0 = b.quad.as_ptr().add(s * strip_len);
    let mut acc = [[_mm512_setzero_si512(); R]; S];
    for (t, rows) in acc.iter_mut().enumerate() {
        *rows = [unbiased_start(b, s + t); R];
    }
    for span in 0..b.spans {
        for q in 0..quads {
            let step = (span * quads + q) * STEP;
            let mut bv = [_mm512_setzero_si512(); S];
            for (t, v) in bv.iter_mut().enumerate() {
                *v = _mm512_loadu_si512(strip0.add(t * strip_len + step) as *const __m512i);
            }
            for r in 0..R {
                let quad = base[r].add(span * row_stride + 4 * q) as *const i32;
                let av = _mm512_set1_epi32(quad.read_unaligned());
                for t in 0..S {
                    acc[t][r] = _mm512_dpbusd_epi32(acc[t][r], av, bv[t]);
                }
            }
        }
    }
    acc
}

/// Whether [`sweep`] takes the tile leg for this product: the calling
/// thread holds a [`TileSession`] opened for `p.width`, `b` carries B
/// tiles, the rows are whole plane rows, and every tile row — 64 bytes
/// from the start of a span, whatever the span's length — lies inside the
/// plane. Anything else goes to the VNNI leg, which needs none of it.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn tiles_fit(rows: usize, plane_len: usize, p: Patches, b: &PackedI8) -> bool {
    let held = TILE_ROWS.get() as usize;
    held != 0
        && held == p.width
        && !b.tile.is_empty()
        && rows.is_multiple_of(p.width)
        && plane_len >= p.extent(rows, b.spans, TILE_ROW_BYTES)
}

/// One tile instruction on named tile registers. Each is its own `asm!`
/// statement: statements without `pure` keep their order, and rustc
/// cannot allocate a `tmm` register (the class is clobber-only), so the
/// tile state is ours from one statement to the next.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
macro_rules! tile {
    // `$t ← rows of 64 bytes at $ptr, $stride apart`.
    (load $t:tt, $ptr:expr, $stride:expr) => {
        std::arch::asm!(
            concat!("tileloadd ", $t, ", [{p} + {s}*1]"),
            p = in(reg) $ptr,
            s = in(reg) $stride,
            out($t) _,
            options(nostack, readonly, preserves_flags),
        )
    };
    // `$c += $a (u8) · $b (i8)`, four-deep dots into i32 lanes.
    (dot $c:tt, $a:tt, $b:tt) => {
        std::arch::asm!(
            concat!("tdpbusd ", $c, ", ", $a, ", ", $b),
            out($c) _,
            options(nostack, nomem, preserves_flags),
        )
    };
    // `rows of 64 bytes at $ptr ← $t`.
    (store $t:tt, $ptr:expr) => {
        std::arch::asm!(
            concat!("tilestored [{p} + {s}*1], ", $t),
            p = in(reg) $ptr,
            s = in(reg) TILE_ROW_BYTES,
            options(nostack, preserves_flags),
        )
    };
}

/// One row of a C tile in memory: 16 exact i32 lanes.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct TileRow([i32; NR_VNNI]);

/// AMX micro-kernel sweep: the conv products of [`sweep_vnni`] on the
/// tile unit. One plane row of `width` patches is one block — its A tiles
/// are loaded in place from the biased plane (row `x` of span `s`'s tile
/// is the 64 bytes at patch `x`'s span `s`; bytes past the span meet the
/// B tile's zero rows), the ≤ 4 B tiles stay resident for the whole
/// sweep, each C tile starts at `−128·S_j` (one 64-byte row loaded with
/// stride 0) and, once its `tdpbusd`s are done, is stored to the stack and
/// finished row by row by the VNNI leg's epilogue. `tdpbusd` sums the
/// same unsaturated `u8 × i8` products into the same i32 lanes as
/// `vpdpbusd`, so the accumulators — and everything after them — are
/// bitwise the VNNI leg's.
///
/// # Safety
///
/// Callers must ensure [`tiles_fit`] holds for the arguments on this
/// thread and the sink holds `rows` rows.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[target_feature(enable = "avx512f")]
unsafe fn sweep_amx(rows: usize, a: &[u8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    debug_assert!(tiles_fit(rows, a.len(), p, b));
    TILE_SWEEPS.set(TILE_SWEEPS.get().wrapping_add(1));
    match (b.spans, b.n.div_ceil(NR_VNNI)) {
        (1, 1) => amx_blocks::<1, 1>(rows, a, p, b, sink),
        (1, 2) => amx_blocks::<1, 2>(rows, a, p, b, sink),
        (2, 1) => amx_blocks::<2, 1>(rows, a, p, b, sink),
        (2, 2) => amx_blocks::<2, 2>(rows, a, p, b, sink),
        _ => unreachable!("the tile mirror exists for at most 2 spans × 2 strips"),
    }
}

/// [`sweep_amx`] for `SPANS` spans × `STRIPS` strips. Tiles: `tmm0..3` =
/// B of (strip 0, span 0), (strip 0, span 1), (strip 1, span 0),
/// (strip 1, span 1); `tmm4/5` = the block's A tiles (which of the two is
/// span 0 alternates, see below); `tmm6/7` = C of strip 0/1.
///
/// # Safety
///
/// As [`sweep_amx`], with `b` packed in `SPANS` spans and `STRIPS` strips.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[target_feature(enable = "avx512f")]
unsafe fn amx_blocks<const SPANS: usize, const STRIPS: usize>(
    rows: usize,
    a: &[u8],
    p: Patches,
    b: &PackedI8,
    sink: &mut Sink<'_>,
) {
    use std::arch::x86_64::*;
    let width = p.width;
    let mut init = [TileRow([0; NR_VNNI]); STRIPS];
    for (s, row) in init.iter_mut().enumerate() {
        _mm512_store_si512(row.0.as_mut_ptr().cast(), unbiased_start(b, s));
    }
    // SAFETY (every `tile!` in this function): the session `tiles_fit`
    // saw configured tmm0–3 as 16 × 64 bytes and tmm4–7 as `width` × 64.
    // Loads read the mirror's 1 KiB chunks (`SPANS · STRIPS` of them
    // exist), one aligned `init` row with stride 0, and `width` plane rows
    // of 64 bytes from `plane_row(y)`, `y ≤ blocks − 1 + SPANS − 1`, which
    // is what `tiles_fit` checked against the plane's length; stores write
    // `width ≤ 16` rows of `out`. `tdpbusd` shapes agree: C and A have
    // `width` rows, A's 64 bytes are B's 16 quad rows.
    let bt = b.tile.as_ptr();
    tile!(load "tmm0", bt, TILE_ROW_BYTES);
    if SPANS == 2 {
        tile!(load "tmm1", bt.add(TILE_BYTES), TILE_ROW_BYTES);
    }
    if STRIPS == 2 {
        tile!(load "tmm2", bt.add(SPANS * TILE_BYTES), TILE_ROW_BYTES);
        if SPANS == 2 {
            tile!(load "tmm3", bt.add(3 * TILE_BYTES), TILE_ROW_BYTES);
        }
    }
    // Where the finished C tiles go; a block reads only the rows its own
    // `tilestored` wrote.
    let mut out = std::mem::MaybeUninit::<[[TileRow; 16]; STRIPS]>::uninit();
    let out = out.as_mut_ptr().cast::<[TileRow; 16]>();
    let mut max = [_mm512_setzero_ps(); 4];
    let plane_row = |y: usize| a.as_ptr().add(y * p.row_stride);
    // Plane row `y + 1` is span 1 of block `y` and span 0 of block
    // `y + 1`: with two spans each block loads one A tile, and the two
    // registers swap roles from block to block.
    if SPANS == 2 {
        tile!(load "tmm4", plane_row(0), p.col_stride);
    }
    macro_rules! block {
        ($y:expr, $span0:tt, $span1:tt) => {{
            if SPANS == 2 {
                tile!(load $span1, plane_row($y + 1), p.col_stride);
            } else {
                tile!(load $span0, plane_row($y), p.col_stride);
            }
            tile!(load "tmm6", init[0].0.as_ptr(), 0usize);
            tile!(dot "tmm6", $span0, "tmm0");
            if SPANS == 2 {
                tile!(dot "tmm6", $span1, "tmm1");
            }
            tile!(store "tmm6", out);
            if STRIPS == 2 {
                tile!(load "tmm7", init[1].0.as_ptr(), 0usize);
                tile!(dot "tmm7", $span0, "tmm2");
                if SPANS == 2 {
                    tile!(dot "tmm7", $span1, "tmm3");
                }
                tile!(store "tmm7", out.add(1));
            }
            for s in 0..STRIPS {
                finish_tile(sink, b, $y * width, width, s, out.add(s).cast(), &mut max);
            }
        }};
    }
    let blocks = rows / width;
    for y in (0..blocks).step_by(2) {
        block!(y, "tmm4", "tmm5");
        if y + 1 < blocks {
            block!(y + 1, "tmm5", "tmm4");
        }
    }
    let max = _mm512_max_ps(_mm512_max_ps(max[0], max[1]), _mm512_max_ps(max[2], max[3]));
    sink.fold_max(_mm512_reduce_max_ps(max));
}

/// Hands the first `width` rows of a stored C tile — rows `r0..` of strip
/// `strip` — to the VNNI leg's epilogue, four at a time so that tile row
/// `r` feeds max tracker `r % 4`.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, `tile` points at `width
/// ≤ 16` initialized rows, rows `r0..r0 + width` exist in the sink and
/// `strip` is a strip of `b`.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn finish_tile(
    sink: &mut Sink<'_>,
    b: &PackedI8,
    r0: usize,
    width: usize,
    strip: usize,
    tile: *const TileRow,
    max: &mut [std::arch::x86_64::__m512; 4],
) {
    use std::arch::x86_64::_mm512_load_si512;
    let row = |r: usize| _mm512_load_si512(tile.add(r).cast());
    let mut r = 0;
    while r + 4 <= width {
        let acc = [row(r), row(r + 1), row(r + 2), row(r + 3)];
        sink.finish_zmm(b, r0 + r, strip, &acc, max);
        r += 4;
    }
    match width - r {
        3 => sink.finish_zmm(b, r0 + r, strip, &[row(r), row(r + 1), row(r + 2)], max),
        2 => sink.finish_zmm(b, r0 + r, strip, &[row(r), row(r + 1)], max),
        1 => sink.finish_zmm(b, r0 + r, strip, &[row(r)], max),
        _ => {}
    }
}

/// One layer of the fused f32 forward sweep, as [`gemm_f32_fused`]
/// multiplies it: a `[spans · span_len, bias.len()]` row-major weight
/// matrix **where the layer stores it** (`Conv2D`'s `[kh·kw·cin, cout]` is
/// `kh` spans of `kw·cin`; `Dense`'s `[in, out]` is one span), its bias,
/// and the LeakyReLU slope that follows it, if one does.
#[derive(Debug, Clone, Copy)]
pub struct FusedF32<'a> {
    /// Spans per patch (kernel rows).
    pub spans: usize,
    /// Floats per span.
    pub span_len: usize,
    /// The weights, one row per shared-dimension step.
    pub w: &'a [f32],
    /// Per-column bias; its length is the column count.
    pub bias: &'a [f32],
    /// LeakyReLU slope applied to the biased sum, if any.
    pub alpha: Option<f32>,
}

/// `dst[out(r) + j] = act(Σ_k a[r][k]·w[k][j] + bias[j])` for `rows` rows
/// of f32 activations addressed by `patches` inside `plane` — the float
/// twin of [`gemm_i8_dequant`], with the weights read in place instead of
/// packed. Row `r`'s `bias.len()` results go to `dst[out.offset(r)..]`
/// (`out.row_stride`/`col_stride` address the interior of the next
/// layer's padded plane, or `Patches::matrix(n)` a plain matrix).
///
/// Per output element the arithmetic is `0 → fused (or, on the portable
/// leg, separate) multiply-add over k ascending → + bias →
/// x ≥ 0 ? x : α·x`: exactly what [`gemm`] into a zeroed buffer followed
/// by a bias sweep and a LeakyReLU sweep computes on the same leg, so the
/// result is **bitwise** that — per leg, not across legs (FMA rounds
/// once, mul + add twice). The AVX2 and AVX-512 legs agree bit for bit.
///
/// # Panics
///
/// Panics if `w` is not `spans·span_len × bias.len()`, or `plane` / `dst`
/// are shorter than the elements `patches` / `out` address.
pub fn gemm_f32_fused(
    rows: usize,
    plane: &[f32],
    patches: Patches,
    layer: FusedF32<'_>,
    dst: &mut [f32],
    out: Patches,
) {
    let n = layer.bias.len();
    fused_sweep::<false>(rows, plane, patches, &layer, n, dst, out);
}

/// The dispatched fused sweep over `n` columns. Each finished register
/// block goes through one of two epilogues, fixed at compile time: with
/// `ACC` it is added into `dst` (the bias is not read — [`gemm`]), without
/// it is biased and activated like [`bias_act`] and stored
/// ([`gemm_f32_fused`]).
///
/// # Panics
///
/// Panics if `w` is not `spans·span_len × n`, `n` is not the bias length
/// of a biased sweep, or `plane` / `dst` are shorter than the elements
/// `p` / `out` address.
fn fused_sweep<const ACC: bool>(
    rows: usize,
    plane: &[f32],
    p: Patches,
    l: &FusedF32<'_>,
    n: usize,
    dst: &mut [f32],
    out: Patches,
) {
    assert_eq!(
        l.w.len(),
        l.spans * l.span_len * n,
        "gemm_f32_fused: weights are not {}·{}×{n}",
        l.spans,
        l.span_len
    );
    assert!(ACC || l.bias.len() == n, "gemm_f32_fused: bias length");
    assert!(
        p.width > 0 && out.width > 0,
        "gemm_f32_fused: zero patch width"
    );
    assert!(
        plane.len() >= p.extent(rows, l.spans, l.span_len),
        "gemm_f32_fused: plane too short"
    );
    assert!(
        dst.len() >= out.extent(rows, 1, n),
        "gemm_f32_fused: output too short"
    );
    if rows == 0 || n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx512_fma_available() {
        // SAFETY: guarded by cached runtime detection of avx512f; the
        // asserts above cover every element the sweep reads or writes.
        unsafe { fused_avx512::<ACC>(rows, plane, p, l, n, dst, out) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by cached runtime detection of avx2+fma; extents
        // as above.
        unsafe { fused_avx2::<ACC>(rows, plane, p, l, n, dst, out) };
        return;
    }
    fused_portable::<ACC>(rows, plane, p, l, n, dst, out);
}

/// The scalar tail every leg's biased epilogue is defined by.
#[inline(always)]
fn bias_act(acc: f32, bias: f32, alpha: Option<f32>) -> f32 {
    let v = acc + bias;
    match alpha {
        Some(_) if v >= 0.0 => v,
        Some(alpha) => alpha * v,
        None => v,
    }
}

/// Portable [`fused_sweep`]: one row × sixteen columns at a time,
/// separate multiply and add.
fn fused_portable<const ACC: bool>(
    rows: usize,
    plane: &[f32],
    p: Patches,
    l: &FusedF32<'_>,
    n: usize,
    dst: &mut [f32],
    out: Patches,
) {
    const NR: usize = 16;
    for r in 0..rows {
        let (base, at) = (p.offset(r), out.offset(r));
        for js in (0..n).step_by(NR) {
            let width = NR.min(n - js);
            let c = &mut dst[at + js..][..width];
            let mut acc = [0.0f32; NR];
            if ACC {
                acc[..width].copy_from_slice(c);
            }
            for span in 0..l.spans {
                let a = &plane[base + span * p.row_stride..][..l.span_len];
                let w = &l.w[span * l.span_len * n + js..];
                for (t, &av) in a.iter().enumerate() {
                    let wr = &w[t * n..][..width];
                    // A whole strip has a length the compiler can see.
                    if let Ok(wr) = <&[f32; NR]>::try_from(wr) {
                        for (x, &wv) in acc.iter_mut().zip(wr) {
                            *x += av * wv;
                        }
                    } else {
                        for (x, &wv) in acc.iter_mut().zip(wr) {
                            *x += av * wv;
                        }
                    }
                }
            }
            if ACC {
                c.copy_from_slice(&acc[..width]);
            } else {
                let bias = &l.bias[js..js + width];
                for ((d, &x), &b) in c.iter_mut().zip(&acc).zip(bias) {
                    *d = bias_act(x, b, l.alpha);
                }
            }
        }
    }
}

/// Where rows `r0..r0 + R` of a block start under `p`, stepping `(y, x)`
/// instead of dividing per row. Rows from `live` on repeat the last live
/// one: the block recomputes it and stores nothing for them.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn block_offsets<const R: usize>(p: Patches, r0: usize, live: usize) -> [usize; R] {
    let (mut x, mut at) = (r0 % p.width, p.offset(r0));
    std::array::from_fn(|r| {
        let here = at;
        if r + 1 < live {
            (x, at) = (x + 1, at + p.col_stride);
            if x == p.width {
                (x, at) = (0, at + p.row_stride - p.width * p.col_stride);
            }
        }
        here
    })
}

/// Declares a vector leg of [`fused_sweep`]: row blocks × column blocks of
/// two vectors, or one for the last `$lanes` columns or fewer. In a
/// block, `R` patches share every weight load, and `R × S` accumulator
/// registers (`S` ≤ 2 vectors of columns) are the independent FMA chains
/// that hide the instruction's latency; a call of at most `$few` rows —
/// the dense head over a handful of windows — takes the smaller block, so
/// it does not pay for chains it cannot fill. The blocks are called by
/// name so that they inline into the sweep, where the full-vector masks
/// of a two-vector block fold to constants.
#[cfg(target_arch = "x86_64")]
macro_rules! fused_leg {
    ($(#[$doc:meta])* $name:ident, $block:ident, $features:literal, $lanes:expr, $rows:expr, $few:expr) => {
        $(#[$doc])*
        ///
        /// # Safety
        ///
        /// Callers must ensure the CPU supports the leg's features and
        /// the operands passed [`fused_sweep`]'s checks.
        #[target_feature(enable = $features)]
        unsafe fn $name<const ACC: bool>(
            rows: usize,
            plane: &[f32],
            p: Patches,
            l: &FusedF32<'_>,
            n: usize,
            dst: &mut [f32],
            out: Patches,
        ) {
            let few = rows <= $few;
            for r0 in (0..rows).step_by(if few { $few } else { $rows }) {
                for js in (0..n).step_by(2 * $lanes) {
                    match (few, n - js > $lanes) {
                        (false, true) => $block::<$rows, 2, ACC>(r0, rows, plane, p, l, n, js, dst, out),
                        (false, false) => $block::<$rows, 1, ACC>(r0, rows, plane, p, l, n, js, dst, out),
                        (true, true) => $block::<$few, 2, ACC>(r0, rows, plane, p, l, n, js, dst, out),
                        (true, false) => $block::<$few, 1, ACC>(r0, rows, plane, p, l, n, js, dst, out),
                    }
                }
            }
        }
    };
}

fused_leg!(
    /// AVX-512: twelve 512-bit rows × 2 leave room for the two weight
    /// vectors and a broadcast in 32 registers.
    fused_avx512, zmm_block, "avx512f", 16, 12, 8
);
fused_leg!(
    /// AVX2 + FMA: the AVX-512 leg at half the width, lane for lane the
    /// same operations — six 256-bit rows × 2 in 16 registers.
    fused_avx2, ymm_block, "avx2,fma", 8, 6, 4
);

/// One `R`-row × `S`-vector block of the AVX-512 leg: the accumulators
/// start from zero, or from `dst` with `ACC`; every `k`-step is `S`
/// (masked) weight loads straight from the layer's matrix and `R`
/// activation broadcasts feeding `R·S` `vfmadd231ps`; without `ACC` the
/// block is finished in registers — biased, blended (ordered ≥) — and
/// each is stored once. Rows past the last one recompute it and are not
/// stored.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, the operands passed
/// [`fused_sweep`]'s checks, `r0 < rows` and `js < n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn zmm_block<const R: usize, const S: usize, const ACC: bool>(
    r0: usize,
    rows: usize,
    plane: &[f32],
    p: Patches,
    l: &FusedF32<'_>,
    n: usize,
    js: usize,
    dst: &mut [f32],
    out: Patches,
) {
    use std::arch::x86_64::*;
    let live = R.min(rows - r0);
    let mut a = block_offsets::<R>(p, r0, live).map(|at| plane.as_ptr().add(at));
    let to = block_offsets::<R>(out, r0, live);
    let mut mask = [0; S];
    for (s, m) in mask.iter_mut().enumerate() {
        *m = lane_mask(16.min(n - js - 16 * s));
    }
    let mut acc = [[_mm512_setzero_ps(); S]; R];
    if ACC {
        for (row, &at) in acc.iter_mut().zip(&to) {
            for (s, v) in row.iter_mut().enumerate() {
                *v = _mm512_maskz_loadu_ps(mask[s], dst.as_ptr().add(at + js + 16 * s));
            }
        }
    }
    let mut w = l.w.as_ptr().add(js);
    for _ in 0..l.spans {
        for t in 0..l.span_len {
            let mut wv = [_mm512_setzero_ps(); S];
            for (s, v) in wv.iter_mut().enumerate() {
                *v = _mm512_maskz_loadu_ps(mask[s], w.add(16 * s));
            }
            for r in 0..R {
                let av = _mm512_set1_ps(*a[r].add(t));
                for s in 0..S {
                    acc[r][s] = _mm512_fmadd_ps(av, wv[s], acc[r][s]);
                }
            }
            w = w.add(n);
        }
        for ptr in &mut a {
            *ptr = ptr.add(p.row_stride);
        }
    }
    let zero = _mm512_setzero_ps();
    for s in 0..S {
        let col = js + 16 * s;
        let bias = if ACC {
            zero
        } else {
            _mm512_maskz_loadu_ps(mask[s], l.bias.as_ptr().add(col))
        };
        for (r, row) in acc.iter().enumerate().take(live) {
            let mut v = row[s];
            if !ACC {
                v = _mm512_add_ps(v, bias);
                if let Some(alpha) = l.alpha {
                    let leak = _mm512_mul_ps(_mm512_set1_ps(alpha), v);
                    v = _mm512_mask_mov_ps(leak, _mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, zero), v);
                }
            }
            _mm512_mask_storeu_ps(dst.as_mut_ptr().add(to[r] + col), mask[s], v);
        }
    }
}

/// [`zmm_block`] on 256-bit registers; `vmaskmovps` takes its lane mask
/// as a vector, cut from a run of ones followed by zeros.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and FMA, the operands
/// passed [`fused_sweep`]'s checks, `r0 < rows` and `js < n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn ymm_block<const R: usize, const S: usize, const ACC: bool>(
    r0: usize,
    rows: usize,
    plane: &[f32],
    p: Patches,
    l: &FusedF32<'_>,
    n: usize,
    js: usize,
    dst: &mut [f32],
    out: Patches,
) {
    use std::arch::x86_64::*;
    const LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    let live = R.min(rows - r0);
    let mut a = block_offsets::<R>(p, r0, live).map(|at| plane.as_ptr().add(at));
    let to = block_offsets::<R>(out, r0, live);
    let mut mask = [_mm256_setzero_si256(); S];
    for (s, m) in mask.iter_mut().enumerate() {
        let width = 8.min(n - js - 8 * s);
        *m = _mm256_loadu_si256(LANES.as_ptr().add(8 - width) as *const __m256i);
    }
    let mut acc = [[_mm256_setzero_ps(); S]; R];
    if ACC {
        for (row, &at) in acc.iter_mut().zip(&to) {
            for (s, v) in row.iter_mut().enumerate() {
                *v = _mm256_maskload_ps(dst.as_ptr().add(at + js + 8 * s), mask[s]);
            }
        }
    }
    let mut w = l.w.as_ptr().add(js);
    for _ in 0..l.spans {
        for t in 0..l.span_len {
            let mut wv = [_mm256_setzero_ps(); S];
            for (s, v) in wv.iter_mut().enumerate() {
                *v = _mm256_maskload_ps(w.add(8 * s), mask[s]);
            }
            for r in 0..R {
                let av = _mm256_set1_ps(*a[r].add(t));
                for s in 0..S {
                    acc[r][s] = _mm256_fmadd_ps(av, wv[s], acc[r][s]);
                }
            }
            w = w.add(n);
        }
        for ptr in &mut a {
            *ptr = ptr.add(p.row_stride);
        }
    }
    let zero = _mm256_setzero_ps();
    for s in 0..S {
        let col = js + 8 * s;
        let bias = if ACC {
            zero
        } else {
            _mm256_maskload_ps(l.bias.as_ptr().add(col), mask[s])
        };
        for (r, row) in acc.iter().enumerate().take(live) {
            let mut v = row[s];
            if !ACC {
                v = _mm256_add_ps(v, bias);
                if let Some(alpha) = l.alpha {
                    let leak = _mm256_mul_ps(_mm256_set1_ps(alpha), v);
                    v = _mm256_blendv_ps(leak, v, _mm256_cmp_ps::<_CMP_GE_OQ>(v, zero));
                }
            }
            _mm256_maskstore_ps(dst.as_mut_ptr().add(to[r] + col), mask[s], v);
        }
    }
}

/// Reference i8 GEMM: the naive i-k-j triple loop over unpacked operands,
/// `C += A·B` with i32 accumulation. Ground truth for the int8 property
/// tests (both optimized kernels must equal it **bitwise**).
pub fn naive_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(
        a.len(),
        m * k,
        "naive_i8: lhs length {} != {m}×{k}",
        a.len()
    );
    assert_eq!(
        b.len(),
        k * n,
        "naive_i8: rhs length {} != {k}×{n}",
        b.len()
    );
    assert_eq!(
        c.len(),
        m * n,
        "naive_i8: out length {} != {m}×{n}",
        c.len()
    );
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk] as i32;
            if av == 0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            let o_row = &mut c[i * n..(i + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv as i32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no external deps).
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn max_rel_err(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
            .fold(0.0, f32::max)
    }

    /// The portable leg of [`gemm`]: the accumulating portable sweep.
    fn portable(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let l = FusedF32 {
            spans: 1,
            span_len: k,
            w: b,
            bias: &[],
            alpha: None,
        };
        fused_portable::<true>(m, a, Patches::matrix(k), &l, n, c, Patches::matrix(n));
    }

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 2),
        (5, 7, 9),
        (1, 120, 1),
        (128, 120, 64),
        (65, 257, 17), // k past one 256-deep panel
        (6, 512, 16),
    ];

    #[test]
    fn portable_kernel_is_bitwise_identical_to_naive() {
        for &(m, k, n) in SHAPES {
            let a = fill(m as u64 * 31 + k as u64, m * k);
            let b = fill(n as u64 * 17 + 3, k * n);
            let mut c_naive = vec![0.0f32; m * n];
            let mut c_blocked = vec![0.0f32; m * n];
            naive(m, k, n, &a, &b, &mut c_naive);
            portable(m, k, n, &a, &b, &mut c_blocked);
            assert_eq!(c_naive, c_blocked, "shape {m}×{k}×{n}");
        }
    }

    #[test]
    fn dispatched_kernel_matches_naive_within_tolerance() {
        // The AVX2 path fuses multiply-adds; 1e-4 rel is the contract.
        for &(m, k, n) in SHAPES {
            let a = fill(m as u64 + 7, m * k);
            let b = fill(n as u64 + 11, k * n);
            let mut c_naive = vec![0.0f32; m * n];
            let mut c_fast = vec![0.0f32; m * n];
            naive(m, k, n, &a, &b, &mut c_naive);
            gemm(m, k, n, &a, &b, &mut c_fast);
            let err = max_rel_err(&c_naive, &c_fast);
            assert!(err < 1e-4, "shape {m}×{k}×{n}: rel err {err}");
        }
    }

    #[test]
    fn dispatched_kernel_is_deterministic_run_to_run() {
        let (m, k, n) = (65, 257, 17);
        let a = fill(21, m * k);
        let b = fill(22, k * n);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c1);
        gemm(m, k, n, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn nt_matches_naive_on_pretransposed_operand() {
        for &(m, k, n) in &[(9, 33, 5), (1, 1, 1), (4, 1, 7), (16, 64, 1)] {
            let a = fill(3, m * k);
            let bt = fill(4, n * k); // B stored as [n, k]
            let mut b = vec![0.0f32; k * n];
            transpose_into(n, k, &bt, &mut b);
            let mut c_ref = vec![0.0f32; m * n];
            naive(m, k, n, &a, &b, &mut c_ref);
            let mut c_nt = vec![0.0f32; m * n];
            gemm_nt(m, n, k, &a, &bt, &mut c_nt);
            assert!(max_rel_err(&c_ref, &c_nt) < 1e-4, "shape {m}×{k}×{n}");
        }
    }

    #[test]
    fn tn_is_bitwise_identical_to_transpose_then_naive() {
        for &(m, k, n) in &[(13, 21, 6), (1, 1, 1), (120, 128, 1), (3, 1, 3)] {
            let at = fill(5, k * m); // A stored as [k, m]
            let b = fill(6, k * n);
            let mut a = vec![0.0f32; m * k];
            transpose_into(k, m, &at, &mut a);
            let mut c_ref = vec![0.0f32; m * n];
            // One multiply-add per element per k-step, increasing k: the
            // naive kernel's order exactly (zero-skip only drops ±0 terms).
            naive(m, k, n, &a, &b, &mut c_ref);
            let mut c_tn = vec![0.0f32; m * n];
            gemm_tn(m, n, k, &at, &b, &mut c_tn);
            assert_eq!(c_ref, c_tn, "shape {m}×{k}×{n}");
        }
    }

    #[test]
    fn kernels_accumulate_rather_than_overwrite() {
        let (m, k, n) = (3, 4, 2);
        let a = fill(7, m * k);
        let b = fill(8, k * n);
        let mut once = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut once);
        let mut twice = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut twice);
        gemm(m, k, n, &a, &b, &mut twice);
        for (o, t) in once.iter().zip(&twice) {
            assert!((2.0 * o - t).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_tiles_roundtrip() {
        let (m, n) = (45, 70); // straddles the 32-tile boundary
        let src = fill(9, m * n);
        let mut t = vec![0.0f32; m * n];
        let mut back = vec![0.0f32; m * n];
        transpose_into(m, n, &src, &mut t);
        transpose_into(n, m, &t, &mut back);
        assert_eq!(src, back);
    }

    #[test]
    fn dot_matches_scalar_fold_within_tolerance() {
        for len in [0, 1, 7, 8, 9, 64, 120, 121] {
            let x = fill(10 + len as u64, len);
            let y = fill(20 + len as u64, len);
            let scalar: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let fast = dot(&x, &y);
            assert!(
                (scalar - fast).abs() <= 1e-4 * scalar.abs().max(1.0),
                "len {len}: {scalar} vs {fast}"
            );
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut c: Vec<f32> = Vec::new();
        gemm(0, 4, 3, &[], &fill(1, 12), &mut c);
        let mut c2 = vec![1.0f32; 6];
        gemm(2, 0, 3, &[], &[], &mut c2);
        assert_eq!(c2, vec![1.0; 6]); // k = 0 adds nothing
    }

    #[test]
    #[should_panic(expected = "gemm: lhs length")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0f32; 4];
        gemm(2, 3, 2, &[0.0; 5], &[0.0; 6], &mut c);
    }

    /// Deterministic i8 fill covering the full value range.
    fn fill_i8(seed: u64, len: usize) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as i8
            })
            .collect()
    }

    const I8_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 2),
        (5, 7, 9),     // odd k, ragged strip
        (4, 8, 8),     // exact tile
        (120, 4, 32),  // layer-1 conv im2col shape
        (13, 128, 17), // deep-conv shape, ragged everything
        (3, 3840, 1),  // final dense shape (k = 120·32)
    ];

    #[test]
    fn packed_i8_kernels_match_naive_bitwise() {
        for &(m, k, n) in I8_SHAPES {
            let a = fill_i8(m as u64 * 131 + k as u64, m * k);
            let b = fill_i8(n as u64 * 17 + 5, k * n);
            let packed = PackedI8::pack(k, n, &b);
            let mut c_naive = vec![0i32; m * n];
            let mut c_port = vec![0i32; m * n];
            let mut c_fast = vec![0i32; m * n];
            naive_i8(m, k, n, &a, &b, &mut c_naive);
            gemm_i8_portable(m, &a, &packed, &mut c_port);
            gemm_i8(m, &a, &packed, &mut c_fast);
            assert_eq!(c_naive, c_port, "portable, shape {m}×{k}×{n}");
            assert_eq!(c_naive, c_fast, "dispatched, shape {m}×{k}×{n}");
        }
    }

    #[test]
    fn i8_kernels_accumulate() {
        let (m, k, n) = (3, 5, 4);
        let a = fill_i8(1, m * k);
        let b = fill_i8(2, k * n);
        let packed = PackedI8::pack(k, n, &b);
        let mut once = vec![0i32; m * n];
        gemm_i8(m, &a, &packed, &mut once);
        let mut twice = vec![0i32; m * n];
        gemm_i8(m, &a, &packed, &mut twice);
        gemm_i8(m, &a, &packed, &mut twice);
        for (o, t) in once.iter().zip(&twice) {
            assert_eq!(2 * o, *t);
        }
    }

    /// Gathers the patches `p` addresses out of a plane of unbiased i8
    /// bytes into the row-major matrix a plain GEMM would take.
    fn gather(plane: &[i8], rows: usize, p: Patches, spans: usize, span_len: usize) -> Vec<i8> {
        let mut a = Vec::with_capacity(rows * spans * span_len);
        for r in 0..rows {
            for s in 0..spans {
                a.extend_from_slice(&plane[p.offset(r) + s * p.row_stride..][..span_len]);
            }
        }
        a
    }

    /// Opens a tile session for `width`, or says why the tile half of a
    /// test does not run here.
    fn tile_session_or_skip(width: usize) -> Option<TileSession> {
        let session = TileSession::open(width);
        if !session.is_active() {
            println!("tile leg not available — skipped");
        }
        session.is_active().then_some(session)
    }

    /// `gemm_i8_dequant`'s result by the book: `naive_i8` over gathered
    /// patches of an unbiased plane, finished by the scalar epilogue.
    fn dequant_by_the_book(
        plane: &[i8],
        rows: usize,
        p: Patches,
        (spans, span_len, cout): (usize, usize, usize),
        bmat: &[i8],
        epi: Dequant<'_>,
    ) -> (Vec<f32>, f32) {
        let mut acc = vec![0i32; rows * cout];
        let a = gather(plane, rows, p, spans, span_len);
        naive_i8(rows, spans * span_len, cout, &a, bmat, &mut acc);
        let mut want = vec![0.0f32; rows * cout];
        let mut sink = Sink::Dequant {
            epi,
            dst: &mut want,
            max_abs: 0.0,
        };
        for r in 0..rows {
            sink.finish(cout, r, 0, &acc[r * cout..(r + 1) * cout]);
        }
        let Sink::Dequant { max_abs, .. } = sink else {
            unreachable!()
        };
        (want, max_abs)
    }

    #[test]
    fn dequant_over_patches_matches_naive_on_every_leg() {
        // (h, w, cin, kh, kw, cout, tiles): the critic's layer shapes plus
        // ragged spans (kw·cin not a multiple of 2 or 4) and odd column
        // counts; `tiles` marks the shapes the AMX leg takes — widths 4,
        // 12 and 16, one and two spans of 16 to 64 bytes, ragged strips —
        // the others it must leave to VNNI (k = 4, three spans, three
        // strips, 17 patches a row, a 65-byte span, a column).
        for &(h, w, cin, kh, kw, cout, tiles) in &[
            (10usize, 12usize, 1usize, 2usize, 2usize, 8usize, false),
            (10, 12, 8, 2, 2, 16, true),
            (10, 12, 16, 2, 2, 32, true),
            (10, 12, 32, 2, 2, 32, true),
            (3, 4, 8, 2, 2, 9, true),
            (2, 16, 16, 1, 2, 17, true),
            (5, 16, 32, 2, 2, 31, true),
            (3, 4, 9, 1, 2, 16, true),
            (4, 5, 8, 3, 2, 16, false),
            (3, 12, 8, 2, 2, 33, false),
            (2, 17, 8, 2, 2, 16, false),
            (2, 4, 13, 1, 5, 8, false),
            (3, 5, 3, 2, 3, 5, false),
            (4, 3, 1, 3, 1, 17, false),
            (1, 1, 37, 1, 1, 1, false),
            (1, 1, 130, 1, 1, 3, false),
        ] {
            let (ph, pw) = (h + kh - 1, w + kw - 1);
            let (spans, span_len) = (kh, kw * cin);
            let p = Patches {
                width: w,
                row_stride: pw * cin,
                col_stride: cin,
            };
            // A whole tile row of slack past the last patch.
            let plane = fill_i8(h as u64 * 7 + cin as u64, ph * pw * cin + 64);
            let bmat = fill_i8(cout as u64 * 13 + 1, spans * span_len * cout);
            let packed = PackedI8::pack_spans(spans, span_len, cout, &bmat);
            let rows = h * w;

            let mult: Vec<f32> = (0..cout).map(|j| 0.01 + j as f32 * 1e-3).collect();
            let bias: Vec<f32> = (0..cout).map(|j| j as f32 - 2.5).collect();
            for alpha in [None, Some(0.2f32)] {
                let epi = Dequant {
                    mult: &mult,
                    bias: &bias,
                    alpha,
                };
                let what = format!("{h}×{w}×{cin}→{cout}, k {kh}×{kw}");
                let (want, want_max) =
                    dequant_by_the_book(&plane, rows, p, (spans, span_len, cout), &bmat, epi);

                let mut port = vec![0.0f32; rows * cout];
                let mut sink = Sink::Dequant {
                    epi,
                    dst: &mut port,
                    max_abs: 0.0,
                };
                sweep_portable(rows, &plane, p, &packed, &mut sink);
                assert_eq!(bits(&want), bits(&port), "portable {what}");

                // The AVX2 leg is never dispatched on a VNNI host; pin it
                // here so every leg is exercised wherever the tests run.
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut avx2 = vec![0.0f32; rows * cout];
                    let mut sink = Sink::Dequant {
                        epi,
                        dst: &mut avx2,
                        max_abs: 0.0,
                    };
                    // SAFETY: avx2 presence checked above; `plane` covers
                    // the patch extent (it backs the portable sweep too).
                    unsafe { sweep_avx2(rows, &plane, p, &packed, &mut sink) };
                    assert_eq!(bits(&want), bits(&avx2), "avx2 {what}");
                }

                let biased: Vec<u8> = plane
                    .iter()
                    .map(|&v| v as u8 ^ i8_activation_bias())
                    .collect();
                // No session: the dispatched leg below the tiles.
                let mut fast = vec![0.0f32; rows * cout];
                let got_max = gemm_i8_dequant(rows, &biased, p, &packed, epi, &mut fast);
                assert_eq!(bits(&want), bits(&fast), "dispatched {what}");
                assert_eq!(want_max.to_bits(), got_max.to_bits());

                // Inside a session: the tile leg, called directly like the
                // AVX2 one, and through the dispatcher — which takes it for
                // exactly the shapes marked above.
                #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
                if let Some(session) = tile_session_or_skip(w.clamp(4, 16)) {
                    assert_eq!(
                        tiles_fit(rows, biased.len(), p, &packed),
                        tiles,
                        "tile fit {what}"
                    );
                    if tiles {
                        let mut amx = vec![0.0f32; rows * cout];
                        let mut sink = Sink::Dequant {
                            epi,
                            dst: &mut amx,
                            max_abs: 0.0,
                        };
                        // SAFETY: `tiles_fit` was just asserted.
                        unsafe { sweep_amx(rows, &biased, p, &packed, &mut sink) };
                        let Sink::Dequant { max_abs, .. } = sink else {
                            unreachable!()
                        };
                        assert_eq!(bits(&want), bits(&amx), "amx {what}");
                        assert_eq!(want_max.to_bits(), max_abs.to_bits(), "amx max {what}");
                    }
                    let before = session.sweeps();
                    let mut fast = vec![0.0f32; rows * cout];
                    let got_max = gemm_i8_dequant(rows, &biased, p, &packed, epi, &mut fast);
                    assert_eq!(session.sweeps() - before, tiles as u32, "leg taken {what}");
                    assert_eq!(bits(&want), bits(&fast), "in session {what}");
                    assert_eq!(want_max.to_bits(), got_max.to_bits());
                }
            }
        }
    }

    #[test]
    fn a_plane_without_tile_slack_takes_the_vnni_leg_and_scores_the_same() {
        // The critic's 16 → 32 layer over a plane with quad slack only:
        // the last tile row would read 29 bytes past the end, so inside a
        // session the dispatcher must stay on VNNI — same bits, no tiles.
        let (h, w, cin, cout) = (10usize, 12usize, 16usize, 32usize);
        let p = Patches {
            width: w,
            row_stride: (w + 1) * cin,
            col_stride: cin,
        };
        let bmat = fill_i8(3, 4 * cin * cout);
        let packed = PackedI8::pack_spans(2, 2 * cin, cout, &bmat);
        let mult = vec![0.02f32; cout];
        let bias = vec![-0.5f32; cout];
        let epi = Dequant {
            mult: &mult,
            bias: &bias,
            alpha: Some(0.2),
        };
        let plane = fill_i8(9, (h + 1) * p.row_stride + 64);
        let biased: Vec<u8> = plane
            .iter()
            .map(|&v| v as u8 ^ i8_activation_bias())
            .collect();
        let tight = &biased[..biased.len() - 61];
        let (want, want_max) =
            dequant_by_the_book(&plane, h * w, p, (2, 2 * cin, cout), &bmat, epi);
        let Some(session) = tile_session_or_skip(w) else {
            return;
        };
        for (plane, tiles) in [(&biased[..], 1), (tight, 0)] {
            let before = session.sweeps();
            let mut got = vec![0.0f32; h * w * cout];
            let got_max = gemm_i8_dequant(h * w, plane, p, &packed, epi, &mut got);
            assert_eq!(session.sweeps() - before, tiles, "slack {}", plane.len());
            assert_eq!(bits(&want), bits(&got), "slack {}", plane.len());
            assert_eq!(want_max.to_bits(), got_max.to_bits());
        }
    }

    #[test]
    fn int8_leg_names_the_dispatched_leg() {
        let leg = int8_leg();
        println!("int8_leg: {leg}");
        assert!(["amx", "vnni", "avx2", "portable"].contains(&leg));
        if force_portable() {
            assert_eq!(leg, "portable");
        }
        // The tile leg is the one a session turns on, and only that one.
        assert_eq!(TileSession::open(12).is_active(), leg == "amx");
        assert_eq!(i8_activation_bias() == 0x80, leg == "amx" || leg == "vnni");
    }

    #[test]
    fn a_nested_session_is_inactive_and_the_outer_one_still_releases() {
        let Some(outer) = tile_session_or_skip(12) else {
            assert!(!TileSession::open(12).is_active());
            return;
        };
        let inner = TileSession::open(8);
        assert!(!inner.is_active(), "second open on a thread is a no-op");
        drop(inner);
        assert_eq!(TILE_ROWS.get(), 12, "the inner guard released nothing");
        drop(outer);
        assert_eq!(TILE_ROWS.get(), 0);
        assert!(TileSession::open(8).is_active(), "tiles were released");
        // Shapes no tile block serves claim nothing.
        assert!(!TileSession::open(3).is_active());
        assert!(!TileSession::open(17).is_active());
    }

    #[test]
    fn a_panic_inside_a_session_releases_the_tiles() {
        if tile_session_or_skip(12).is_none() {
            return;
        }
        let unwound = std::panic::catch_unwind(|| {
            let _session = TileSession::open(12);
            assert_eq!(TILE_ROWS.get(), 12);
            panic!("scoring failed mid-session");
        });
        assert!(unwound.is_err());
        assert_eq!(TILE_ROWS.get(), 0, "unwinding dropped the guard");
        assert!(
            TileSession::open(16).is_active(),
            "the thread can open the next one"
        );
    }

    #[test]
    fn two_threads_with_their_own_sessions_score_what_one_thread_scores() {
        // Two windows of the critic's 32 → 32 layer: serially without a
        // session, then one window per thread, both sessions open at once.
        let (h, w, cin, cout) = (10usize, 12usize, 32usize, 32usize);
        let p = Patches {
            width: w,
            row_stride: (w + 1) * cin,
            col_stride: cin,
        };
        let bmat = fill_i8(5, 4 * cin * cout);
        let packed = PackedI8::pack_spans(2, 2 * cin, cout, &bmat);
        let mult = vec![0.01f32; cout];
        let bias = vec![0.25f32; cout];
        let epi = Dequant {
            mult: &mult,
            bias: &bias,
            alpha: Some(0.2),
        };
        let planes: Vec<Vec<u8>> = (0..2)
            .map(|i| {
                fill_i8(11 + i, (h + 1) * p.row_stride + 64)
                    .iter()
                    .map(|&v| v as u8 ^ i8_activation_bias())
                    .collect()
            })
            .collect();
        let score = |plane: &[u8]| {
            let mut out = vec![0.0f32; h * w * cout];
            let max = gemm_i8_dequant(h * w, plane, p, &packed, epi, &mut out);
            (bits(&out), max.to_bits())
        };
        let serial: Vec<_> = planes.iter().map(|plane| score(plane)).collect();
        let both_open = std::sync::Barrier::new(2);
        let forked: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = planes
                .iter()
                .map(|plane| {
                    scope.spawn(|| {
                        let session = TileSession::open(w);
                        both_open.wait();
                        let scored = score(plane);
                        both_open.wait();
                        (scored, session.sweeps())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let tiles = tile_session_or_skip(w).is_some() as u32;
        for ((scored, sweeps), want) in forked.iter().zip(&serial) {
            assert_eq!(scored, want);
            assert_eq!(
                *sweeps, tiles,
                "each thread ran its product on its own tiles"
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`fused_sweep`] by the book, per element: `0 → madd over k
    /// ascending → + bias → x ≥ 0 ? x : α·x`, or with `ACC` `C → madd over
    /// k ascending`.
    #[allow(clippy::too_many_arguments)]
    fn fused_reference<const ACC: bool>(
        rows: usize,
        plane: &[f32],
        p: Patches,
        l: &FusedF32<'_>,
        n: usize,
        dst: &mut [f32],
        out: Patches,
        madd: fn(f32, f32, f32) -> f32,
    ) {
        for r in 0..rows {
            for j in 0..n {
                let at = out.offset(r) + j;
                let mut acc = if ACC { dst[at] } else { 0.0 };
                for k in 0..l.spans * l.span_len {
                    let a = plane[p.offset(r) + k / l.span_len * p.row_stride + k % l.span_len];
                    acc = madd(a, l.w[k * n + j], acc);
                }
                dst[at] = if ACC {
                    acc
                } else {
                    bias_act(acc, l.bias[j], l.alpha)
                };
            }
        }
    }

    /// Runs the sweep (`ACC` or not) on every leg this CPU has, over a
    /// copy of `c0` from `origin` on, and holds each leg to its scalar
    /// reference — `a·b + c` portable, `f32::mul_add` on the two vector
    /// legs, which agree — and the dispatched sweep to the leg it takes.
    #[allow(clippy::too_many_arguments)]
    fn check_fused_legs<const ACC: bool>(
        rows: usize,
        plane: &[f32],
        p: Patches,
        l: &FusedF32<'_>,
        n: usize,
        c0: &[f32],
        origin: usize,
        out: Patches,
        what: &str,
    ) {
        let run = |leg: &dyn Fn(&mut [f32])| {
            let mut dst = c0.to_vec();
            leg(&mut dst[origin..]);
            bits_nan_folded(&dst)
        };
        let scalar = |madd| run(&|d| fused_reference::<ACC>(rows, plane, p, l, n, d, out, madd));
        let mut want = scalar(|a, b, c| a * b + c);
        let port = run(&|d| fused_portable::<ACC>(rows, plane, p, l, n, d, out));
        assert_eq!(want, port, "portable {what}");
        // The vector legs are pinned here wherever the CPU has them: a
        // VNNI host never dispatches AVX2.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            let fused = scalar(f32::mul_add);
            // SAFETY: avx2+fma checked above; `plane` and `d` cover the
            // extents (they back the portable run).
            let avx2 = run(&|d| unsafe { fused_avx2::<ACC>(rows, plane, p, l, n, d, out) });
            assert_eq!(fused, avx2, "avx2 {what}");
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f checked; extents as above.
                let avx512 = run(&|d| unsafe { fused_avx512::<ACC>(rows, plane, p, l, n, d, out) });
                assert_eq!(avx2, avx512, "avx512 {what}");
            }
            if fma_available() {
                want = fused;
            }
        }
        let got = run(&|d| fused_sweep::<ACC>(rows, plane, p, l, n, d, out));
        assert_eq!(want, got, "dispatched {what}");
    }

    #[test]
    fn fused_f32_legs_match_their_references() {
        // (h, w, cin, kh, kw, cout): the critic's layers, masked column
        // tails on both vector widths, a ragged last row block, the dense
        // head's few-rows block and a 1×1 plane — biased, and accumulated
        // into a C holding ±0, ±∞ and NaN.
        for &(h, w, cin, kh, kw, cout) in &[
            (10usize, 12usize, 1usize, 2usize, 2usize, 8usize),
            (10, 12, 8, 2, 2, 16),
            (10, 12, 16, 2, 2, 32),
            (5, 7, 3, 3, 2, 17),
            (4, 5, 2, 1, 3, 40),
            (3, 3, 5, 2, 1, 1),
            (1, 7, 64, 1, 1, 1),
            (1, 1, 9, 1, 1, 3),
        ] {
            let (spans, span_len, rows) = (kh, kw * cin, h * w);
            let p = Patches {
                width: w,
                row_stride: (w + kw - 1) * cin,
                col_stride: cin,
            };
            let mut plane = fill(h as u64 * 7 + cout as u64, (h + kh - 1) * p.row_stride);
            // Values a range-tripping window, an idle one and a flushed
            // one would leave behind.
            for (i, v) in plane.iter_mut().enumerate() {
                match i % 11 {
                    3 => *v *= 1e30,
                    5 => *v = 0.0,
                    7 => *v *= 1e-41,
                    _ => {}
                }
            }
            let weights = fill(cout as u64 * 13 + 1, spans * span_len * cout);
            let bias = fill(cin as u64 + 5, cout);
            // Straight rows, and the interior of a wider, bordered plane.
            let outs = [
                (0, Patches::matrix(cout)),
                (
                    (w + 2) * cout + cout,
                    Patches {
                        width: w,
                        row_stride: (w + 2) * cout,
                        col_stride: cout,
                    },
                ),
            ];
            for (origin, out) in outs {
                let len = origin + out.extent(rows, 1, cout);
                for alpha in [None, Some(0.2f32)] {
                    let l = FusedF32 {
                        spans,
                        span_len,
                        w: &weights,
                        bias: &bias,
                        alpha,
                    };
                    let what = format!("{h}×{w}×{cin}→{cout}, k {kh}×{kw}, {alpha:?}");
                    let zeros = vec![0.0f32; len];
                    check_fused_legs::<false>(
                        rows, &plane, p, &l, cout, &zeros, origin, out, &what,
                    );
                    if alpha.is_none() {
                        let c0 = fill_special(rows as u64 + cout as u64, len);
                        let what = format!("accumulate {what}");
                        check_fused_legs::<true>(
                            rows, &plane, p, &l, cout, &c0, origin, out, &what,
                        );
                    }
                }
            }
        }
        // The accumulating epilogue as `gemm` runs it: plain rows, every
        // row-block height of both vector legs and ragged last blocks,
        // columns on both sides of one and two vectors, k across a
        // 256-deep panel, ±0, ±∞ and NaN in A, B and C.
        let widths = [1usize, 7, 8, 9, 16, 17, 32, 33, 40];
        let depths = [1usize, 5, 64, 256, 257, 300];
        for (i, m) in (1usize..=13).chain([25, 37]).enumerate() {
            for (j, &n) in widths.iter().enumerate() {
                let k = depths[(i + 3 * j) % depths.len()];
                let seed = (i * widths.len() + j) as u64 * 3 + 1;
                let (a, b) = (fill_special(seed, m * k), fill_special(seed + 1, k * n));
                let c0 = fill_special(seed + 2, m * n);
                let l = FusedF32 {
                    spans: 1,
                    span_len: k,
                    w: &b,
                    bias: &[],
                    alpha: None,
                };
                let (rows, out) = (Patches::matrix(k), Patches::matrix(n));
                let what = format!("gemm m {m}, k {k}, n {n}");
                check_fused_legs::<true>(m, &a, rows, &l, n, &c0, 0, out, &what);
            }
        }
    }

    /// `fill` with the values a diverging run leaves behind sprinkled in:
    /// ±0, ±Inf, NaN, a denormal and a huge one.
    fn fill_special(seed: u64, len: usize) -> Vec<f32> {
        let mut v = fill(seed, len);
        for (i, x) in v.iter_mut().enumerate() {
            match (i as u64 + seed) % 23 {
                2 => *x = 0.0,
                5 => *x = -0.0,
                7 => *x = f32::INFINITY,
                11 => *x = f32::NEG_INFINITY,
                13 => *x = f32::NAN,
                17 => *x *= 1e-41,
                19 => *x *= 1e30,
                _ => {}
            }
        }
        v
    }

    /// Bit patterns with every NaN mapped to one: which payload survives
    /// an add of two NaNs is the instruction's operand order, which no leg
    /// promises.
    fn bits_nan_folded(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
            .collect()
    }

    #[test]
    fn training_f32_legs_match_the_bodies_they_replace() {
        // Every row-block height and both strip widths with ragged edges,
        // the critic's layer shapes, k across a 256-deep panel, zero
        // dimensions.
        let dims = [0usize, 1, 2, 3, 5, 8, 13, 27];
        let widths = [0usize, 1, 4, 8, 15, 16, 17, 32, 33, 50];
        let depths = [0usize, 1, 4, 7, 8, 9, 31, 32, 120, 293];
        let mut shapes = vec![(128, 32, 64), (64, 16, 40), (4, 8, 240), (25, 128, 32)];
        for (i, &m) in dims.iter().enumerate() {
            for (j, &n) in widths.iter().enumerate() {
                shapes.push((m, n, depths[(i + 3 * j) % depths.len()]));
            }
        }
        for (case, &(m, n, k)) in shapes.iter().enumerate() {
            for special in [false, true] {
                let gen = if special { fill_special } else { fill };
                let seed = case as u64 * 3 + 1;
                let (x, y, c0) = (gen(seed, m * k), gen(seed + 1, k * n), gen(seed + 2, m * n));
                let run = |leg: &dyn Fn(&mut [f32])| {
                    let mut c = c0.clone();
                    leg(&mut c);
                    bits_nan_folded(&c)
                };
                let what = format!("m {m}, n {n}, k {k}, special {special}");
                // The portable bodies, whatever this process dispatches.
                let tn = run(&|c| gemm_tn_body(m, n, k, &x, &y, c));
                let nt = run(&|c| gemm_nt_body(m, n, k, &x, &y, c));
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    // SAFETY (all blocks below): the feature each leg needs
                    // is checked first; the operands have the stated sizes.
                    assert_eq!(tn, run(&|c| unsafe { gemm_tn_avx2(m, n, k, &x, &y, c) }));
                    assert_eq!(nt, run(&|c| unsafe { gemm_nt_avx2(m, n, k, &x, &y, c) }));
                    if is_x86_feature_detected!("avx512f") {
                        let got = run(&|c| unsafe { gemm_tn_avx512(m, n, k, &x, &y, c) });
                        assert_eq!(tn, got, "gemm_tn avx512: {what}");
                        let got = run(&|c| unsafe {
                            gemm_nt_avx512(m, n, k, &x, &y, c, &mut Vec::new())
                        });
                        assert_eq!(nt, got, "gemm_nt avx512: {what}");
                    }
                }
                assert_eq!(tn, run(&|c| gemm_tn(m, n, k, &x, &y, c)), "gemm_tn: {what}");
                assert_eq!(nt, run(&|c| gemm_nt(m, n, k, &x, &y, c)), "gemm_nt: {what}");
            }
        }
    }

    #[test]
    fn f32_leg_names_the_dispatched_leg() {
        let leg = f32_leg();
        println!("f32_leg: {leg}");
        assert!(["avx512", "avx2", "portable"].contains(&leg));
        if force_portable() {
            assert_eq!(leg, "portable");
        }
        // The portable leg is the one that rounds every product: only
        // there is `gemm` the unfused sum bit for bit.
        let (a, b) = ([1.0f32 + f32::EPSILON], [1.0f32 - f32::EPSILON]);
        let mut c = [-1.0f32];
        gemm(1, 1, 1, &a, &b, &mut c);
        assert_eq!(c[0] == 0.0, leg == "portable");
    }

    #[test]
    fn naive_is_the_portable_kernel_on_finite_operands_only() {
        // `naive` skips a zero in `A`: the NaN of 0·∞ never reaches `C`,
        // and a −0.0 accumulator is not turned into +0.0 by adding +0.0.
        let (mut skipped, mut swept) = ([-0.0f32, 1.0], [-0.0f32, 1.0]);
        naive(1, 1, 2, &[0.0], &[1.0, f32::INFINITY], &mut skipped);
        portable(1, 1, 2, &[0.0], &[1.0, f32::INFINITY], &mut swept);
        assert_eq!(bits(&skipped), bits(&[-0.0, 1.0]));
        assert!(swept[0].to_bits() == 0 && swept[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "gemm_f32_fused: plane too short")]
    fn fused_f32_rejects_a_short_plane() {
        let l = FusedF32 {
            spans: 2,
            span_len: 2,
            w: &[1.0; 4],
            bias: &[0.0],
            alpha: None,
        };
        let p = Patches {
            width: 2,
            row_stride: 3,
            col_stride: 1,
        };
        // Two pixels of a 2×3 plane need all six floats.
        gemm_f32_fused(2, &[0.0; 5], p, l, &mut [0.0; 2], Patches::matrix(1));
    }

    #[test]
    #[should_panic(expected = "int8 plane too short")]
    fn dequant_rejects_a_plane_without_quad_slack() {
        // span_len 2 reads a whole quad: the last patch needs 2 spare bytes.
        let packed = PackedI8::pack_spans(2, 2, 1, &[1; 4]);
        let p = Patches {
            width: 2,
            row_stride: 3,
            col_stride: 1,
        };
        let epi = Dequant {
            mult: &[1.0],
            bias: &[0.0],
            alpha: None,
        };
        gemm_i8_dequant(2, &[0u8; 6], p, &packed, epi, &mut [0.0; 2]);
    }

    #[test]
    fn i8_saturation_extremes_are_exact() {
        // ±128/±127 everywhere at the documented overflow bound shape.
        let (m, k, n) = (2, 256, 9);
        let a: Vec<i8> = (0..m * k)
            .map(|i| if i % 2 == 0 { -128 } else { 127 })
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|i| if i % 3 == 0 { 127 } else { -128 })
            .collect();
        let packed = PackedI8::pack(k, n, &b);
        let mut c_ref = vec![0i32; m * n];
        let mut c_fast = vec![0i32; m * n];
        naive_i8(m, k, n, &a, &b, &mut c_ref);
        gemm_i8(m, &a, &packed, &mut c_fast);
        assert_eq!(c_ref, c_fast);
    }

    #[test]
    #[should_panic(expected = "gemm_i8: lhs length")]
    fn i8_dimension_mismatch_panics() {
        let packed = PackedI8::pack(3, 2, &[0; 6]);
        let mut c = vec![0i32; 4];
        gemm_i8(2, &[0; 5], &packed, &mut c);
    }
}
