//! The AMX tile leg of the int8 sweep: [`TileSession`], the B tile
//! mirror and the `tdpbusd` block sweep.
//!
//! # Safety of the tile instructions
//!
//! The AMX intrinsics, `target_feature = "amx-*"` and the standard
//! library's runtime detection of `amx-*` are unstable, so the leg is five
//! instructions in `asm!` — `ldtilecfg`, `tileloadd`, `tdpbusd`,
//! `tilestored`, `tilerelease` — and one raw `arch_prctl` system call:
//!
//! - **when they may execute**: only in a process that dispatches
//!   [`Int8Leg::Amx`], which the table decides once (`CPUID.(7,0):EDX`
//!   bits 24/25, the VNNI leg supported and not pinned off, Linux granting
//!   `ARCH_REQ_XCOMP_PERM` for the tile data); a host without AMX or a
//!   refusing kernel never reaches a tile instruction. `ldtilecfg` runs in
//!   [`TileSession::open`] alone, the other three only where the calling
//!   thread's session is recorded in a thread-local, so a tile operation
//!   always meets the configuration it was written for;
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

use super::*;

thread_local! {
    /// Tile rows of the [`TileSession`] this thread holds, 0 for none.
    static TILE_ROWS: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
    /// Products this thread ran on the tile leg (a wrapping statistic).
    static TILE_SWEEPS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Bytes of one tile row: every tile the leg configures is `rows × 64`
/// bytes — 16 quads of an A row, 16 columns × 4 `k`-steps of a B row, 16
/// i32 lanes of a C row.
pub(super) const TILE_ROW_BYTES: usize = 64;

/// Bytes of one 16-row tile, the stride of the packed tile mirror.
pub(super) const TILE_BYTES: usize = 16 * TILE_ROW_BYTES;

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
    if Int8Leg::dispatched() != Int8Leg::Amx {
        return false;
    }
    let mut cfg = TileConfig([0; 64]);
    cfg.0[0] = 1; // palette
    for t in 0..8 {
        cfg.0[16 + 2 * t] = TILE_ROW_BYTES as u8; // colsb, u16 LE
        cfg.0[48 + t] = if t < 4 { 16 } else { width };
    }
    // SAFETY: AMX-TILE is present and the kernel granted the tile state
    // (the table dispatches the tile leg); the operand is 64 readable bytes describing a
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

/// This thread's claim on the AMX tile registers: while one is active,
/// [`gemm_i8_dequant`] runs the convolution products that fit on the tile
/// leg (see the module docs);
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

/// Whether the AMX leg takes the tiles for this product: the calling
/// thread holds a [`TileSession`] opened for `p.width`, `b` carries B
/// tiles, the rows are whole plane rows, and every tile row — 64 bytes
/// from the start of a span, whatever the span's length — lies inside the
/// plane. Anything else goes to the VNNI leg, which needs none of it.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(super) fn tiles_fit(rows: usize, plane_len: usize, p: Patches, b: &PackedI8) -> bool {
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
pub(super) unsafe fn sweep(rows: usize, a: &[u8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
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

/// [`sweep`] for `SPANS` spans × `STRIPS` strips. Tiles: `tmm0..3` =
/// B of (strip 0, span 0), (strip 0, span 1), (strip 1, span 0),
/// (strip 1, span 1); `tmm4/5` = the block's A tiles (which of the two is
/// span 0 alternates, see below); `tmm6/7` = C of strip 0/1.
///
/// # Safety
///
/// As [`sweep`], with `b` packed in `SPANS` spans and `STRIPS` strips.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::testing::tile_session_or_skip;

    impl TileSession {
        /// Whether this guard holds the tiles (and will release them).
        pub(crate) fn is_active(&self) -> bool {
            self.active
        }
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
}
