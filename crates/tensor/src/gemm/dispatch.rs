//! The dispatch table: which leg — CPU-specific instantiation — of each
//! kernel family this process runs. The only file that asks the CPU what
//! it has.

use std::sync::OnceLock;

/// Whether the CPU has every named feature (std caches the detection).
#[cfg(target_arch = "x86_64")]
macro_rules! has {
    ($($feature:tt),+) => { $(std::arch::is_x86_feature_detected!($feature))&&+ };
}

/// No vector legs off x86-64.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! has {
    ($($feature:tt),+) => {
        false
    };
}

/// Declares one family's legs, best last, each with its name and what
/// this CPU needs to run it.
macro_rules! legs {
    ($(#[$doc:meta])* $family:ident {
        $($(#[$leg_doc:meta])* $leg:ident = $name:literal if $supported:expr,)+
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $family {
            $($(#[$leg_doc])* $leg,)+
        }

        impl $family {
            /// Every leg, best last (the array is as long as the names).
            pub const ALL: [$family; [$($name),+].len()] = [$($family::$leg),+];

            /// Whether this CPU can run the leg (whatever is dispatched).
            pub fn supported(self) -> bool {
                match self {
                    $($family::$leg => $supported,)+
                }
            }

            /// The leg this process runs, decided once: the best supported
            /// one, or the portable one under `VEHIGAN_FORCE_PORTABLE`.
            pub(crate) fn dispatched() -> $family {
                static LEG: OnceLock<$family> = OnceLock::new();
                *LEG.get_or_init(|| {
                    let portable = $family::ALL[0];
                    if std::env::var_os("VEHIGAN_FORCE_PORTABLE").is_some() {
                        return portable;
                    }
                    $family::ALL.into_iter().rfind(|leg| leg.supported()).unwrap_or(portable)
                })
            }

            /// The leg's name, as the `…_leg()` functions print it.
            pub fn name(self) -> &'static str {
                match self {
                    $($family::$leg => $name,)+
                }
            }
        }
    };
}

legs!(
    /// A leg of the f32 products: the forward sweep behind
    /// [`gemm`](super::gemm) and [`gemm_f32_fused`](super::gemm_f32_fused),
    /// and [`gemm_tn`](super::gemm_tn) / [`gemm_nt`](super::gemm_nt).
    F32Leg {
        /// Scalar source; every product rounds, then adds.
        Portable = "portable" if true,
        /// AVX2 + FMA.
        Avx2 = "avx2" if has!("avx2", "fma"),
        /// AVX-512F over the AVX2 + FMA bodies, which take the shapes it
        /// does not repay.
        Avx512 = "avx512" if has!("avx512f", "avx2", "fma"),
    }
);

legs!(
    /// A leg of the int8 sweep behind [`gemm_i8`](super::gemm_i8) and
    /// [`gemm_i8_dequant`](super::gemm_i8_dequant).
    Int8Leg {
        /// Scalar source.
        Portable = "portable" if true,
        /// `madd_epi16` pair-dots.
        Avx2 = "avx2" if has!("avx2"),
        /// `vpdpbusd` quad-dots on biased activations.
        Vnni = "vnni" if has!("avx512f", "avx512vnni"),
        /// AMX tiles for the convolution products that fit, inside a
        /// [`TileSession`](super::TileSession); VNNI for everything else.
        /// Linux must also grant the tile-data state, asked once.
        Amx = "amx" if Int8Leg::Vnni.supported() && tiles_granted(),
    }
);

impl Int8Leg {
    /// The XOR mask activations carry on this leg: `0x80` (`a + 128` as
    /// u8, what `vpdpbusd` and `tdpbusd` multiply) on VNNI and AMX, `0`
    /// (plain two's-complement i8) otherwise.
    pub(crate) fn activation_bias(self) -> u8 {
        match self {
            Int8Leg::Vnni | Int8Leg::Amx => 0x80,
            Int8Leg::Portable | Int8Leg::Avx2 => 0,
        }
    }
}

/// Whether AVX-512F kernels may run: the dispatched f32 leg is AVX-512.
/// Downstream SIMD fast paths (`vehigan-lite`'s quantizer) share the pin.
pub fn avx512_available() -> bool {
    F32Leg::dispatched() == F32Leg::Avx512
}

/// The name of the dispatched f32 leg.
pub fn f32_leg() -> &'static str {
    F32Leg::dispatched().name()
}

/// The name of the dispatched int8 leg.
pub fn int8_leg() -> &'static str {
    Int8Leg::dispatched().name()
}

/// Whether the CPU advertises AMX-TILE and AMX-INT8 (`CPUID.(7,0):EDX`
/// bits 24, 25 — callers check VNNI first, so leaf 7 exists) and Linux
/// granted this process the tile-data state. Asked once.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn tiles_granted() -> bool {
    static AMX: OnceLock<bool> = OnceLock::new();
    *AMX.get_or_init(|| {
        let edx = std::arch::x86_64::__cpuid_count(7, 0).edx;
        edx >> 24 & 1 == 1 && edx >> 25 & 1 == 1 && request_tile_data()
    })
}

/// No tile leg off Linux x86-64.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn tiles_granted() -> bool {
    false
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, i8_activation_bias, TileSession};

    fn force_portable() -> bool {
        std::env::var_os("VEHIGAN_FORCE_PORTABLE").is_some()
    }

    #[test]
    fn int8_leg_names_the_dispatched_leg() {
        let leg = int8_leg();
        println!("int8_leg: {leg}");
        assert!(Int8Leg::dispatched().supported());
        if force_portable() {
            assert_eq!(leg, "portable");
        }
        // The tile leg is the one a session turns on, and only that one.
        assert_eq!(TileSession::open(12).is_active(), leg == "amx");
        assert_eq!(i8_activation_bias() == 0x80, leg == "amx" || leg == "vnni");
    }

    #[test]
    fn f32_leg_names_the_dispatched_leg() {
        let leg = f32_leg();
        println!("f32_leg: {leg}");
        assert!(F32Leg::dispatched().supported());
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
}
