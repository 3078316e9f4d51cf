//! Branch-free byte-slice kernels for the erasure-coding hot paths.
//!
//! Every byte an OI-RAID rebuild moves goes through one of two inner loops:
//! a pure-XOR accumulate (RAID5 parity, RAID6 P, the outer declustered
//! stripes) or a GF(2^8) multiply-accumulate (Reed–Solomon, RAID6 Q, LRC
//! globals). This module provides both as standalone kernels with three
//! implementations each, selected once at runtime:
//!
//! * **Scalar** — the retained reference implementations ([`scalar`]): the
//!   log/exp-table multiply with its data-dependent `if s != 0` branch and a
//!   strict byte-at-a-time XOR. Kept as the equivalence-test oracle and the
//!   benchmark baseline; never picked by auto-detection.
//! * **Wide** — portable wide-word code: XOR in `u128` lanes via
//!   `chunks_exact` with a scalar tail, and the split-nibble-table multiply
//!   (two 16-entry tables per coefficient — `c·s = lo[s & 15] ^ hi[s >> 4]`,
//!   the ISA-L trick), which handles zero bytes with no branch at all.
//! * **Simd** — `x86_64` only: the same nibble tables live in vector
//!   registers and 16/32 bytes are multiplied per `pshufb`/`vpshufb` pair
//!   (SSSE3/AVX2, detected at runtime). Falls back to **Wide** on other
//!   architectures or older CPUs.
//!
//! The per-coefficient tables are a [`MulTable`]; [`crate::Gf256`] caches
//! all 256 of them at construction, so slice multiplies never touch the
//! log/exp tables. Dispatch is a single relaxed atomic load per slice call
//! and can be pinned with [`force_path`] for benchmarks and differential
//! tests.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation services the slice calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Byte-at-a-time reference implementations (log/exp multiply).
    Scalar,
    /// Portable wide-word XOR + split-nibble-table multiply.
    Wide,
    /// Vectorized nibble-table multiply (SSSE3/AVX2 on `x86_64`).
    Simd,
}

impl KernelPath {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Wide => "wide",
            Self::Simd => "simd",
        }
    }
}

/// 0 = no override, else KernelPath discriminant + 1.
static FORCED: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<KernelPath> = OnceLock::new();

/// Whether the vectorized path is usable on this machine.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> KernelPath {
    if simd_available() {
        KernelPath::Simd
    } else {
        KernelPath::Wide
    }
}

/// The path slice kernels currently dispatch to.
pub fn active_path() -> KernelPath {
    match FORCED.load(Ordering::Relaxed) {
        1 => KernelPath::Scalar,
        2 => KernelPath::Wide,
        3 if simd_available() => KernelPath::Simd,
        3 => KernelPath::Wide,
        _ => *DETECTED.get_or_init(detect),
    }
}

/// Pins dispatch to `path` (`None` restores auto-detection). Forcing
/// [`KernelPath::Simd`] on a machine without SIMD support degrades to the
/// wide path. Intended for benchmarks and differential tests; affects the
/// whole process.
pub fn force_path(path: Option<KernelPath>) {
    let v = match path {
        None => 0,
        Some(KernelPath::Scalar) => 1,
        Some(KernelPath::Wide) => 2,
        Some(KernelPath::Simd) => 3,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// Carry-less "Russian peasant" multiply in GF(2^8) mod 0x11d. Table-free,
/// so table construction cannot recurse into the shared field instance.
const fn gf_mul(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b as u16;
    let mut p = 0u16;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= 0x11d;
        }
        b >>= 1;
    }
    p as u8
}

/// Retained scalar reference implementations.
///
/// These are the pre-kernel inner loops, kept verbatim in shape: the
/// equivalence proptests assert every optimized path is bit-identical to
/// them, and the criterion benches use them as the baseline. The XOR loop
/// routes every byte through [`std::hint::black_box`] so the *baseline*
/// stays genuinely byte-at-a-time under `-O` (the optimized kernels are
/// what is allowed to go wide).
pub mod scalar {
    use super::gf_mul;

    /// `dst[i] ^= src[i]`, one byte at a time.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_acc(dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len());
        for (d, s) in dst.iter_mut().zip(src) {
            *d = std::hint::black_box(*d ^ *s);
        }
    }

    /// `out[i] = c * src[i]` via log/exp lookups with the historical
    /// `if s == 0` branch.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn mul_slice(c: u8, src: &[u8], out: &mut [u8]) {
        assert_eq!(src.len(), out.len());
        let (log, exp) = log_exp();
        match c {
            0 => out.fill(0),
            1 => out.copy_from_slice(src),
            _ => {
                let lc = log[c as usize] as usize;
                for (s, o) in src.iter().zip(out.iter_mut()) {
                    *o = if *s == 0 {
                        0
                    } else {
                        exp[lc + log[*s as usize] as usize] as u8
                    };
                }
            }
        }
    }

    /// `out[i] ^= c * src[i]` via log/exp lookups with the historical
    /// `if s != 0` branch.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn mul_acc_slice(c: u8, src: &[u8], out: &mut [u8]) {
        assert_eq!(src.len(), out.len());
        let (log, exp) = log_exp();
        match c {
            0 => {}
            1 => {
                for (s, o) in src.iter().zip(out.iter_mut()) {
                    *o = std::hint::black_box(*o ^ *s);
                }
            }
            _ => {
                let lc = log[c as usize] as usize;
                for (s, o) in src.iter().zip(out.iter_mut()) {
                    if *s != 0 {
                        *o ^= exp[lc + log[*s as usize] as usize] as u8;
                    }
                }
            }
        }
    }

    /// Process-wide log/exp tables (same construction as [`crate::Gf2`],
    /// but private to the reference path so it stays self-contained).
    fn log_exp() -> (&'static [u16; 256], &'static [u16; 512]) {
        static TABLES: std::sync::OnceLock<([u16; 256], [u16; 512])> = std::sync::OnceLock::new();
        let (log, exp) = TABLES.get_or_init(|| {
            let mut log = [0u16; 256];
            let mut exp = [0u16; 512];
            let mut x = 1u8;
            for i in 0..255 {
                exp[i] = x as u16;
                exp[i + 255] = x as u16;
                log[x as usize] = i as u16;
                x = gf_mul(x, 2);
            }
            (log, exp)
        });
        (log, exp)
    }
}

/// `dst[i] ^= src[i]` — wide-word XOR accumulate.
///
/// Dispatches on [`active_path`]; the non-scalar implementation processes
/// `u128` lanes via `chunks_exact` with a scalar tail (on `x86_64` LLVM
/// lowers the lane loop to full-width vector XORs, so a separate
/// intrinsics path would buy nothing).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn xor_acc(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len());
    if active_path() == KernelPath::Scalar {
        scalar::xor_acc(dst, src);
    } else {
        xor_acc_wide(dst, src);
    }
}

/// `dst[i] ^= a[i] ^ b[i]` — the single-pass read-modify-write parity
/// patch (`parity ^= old ^ new`).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn xor_acc2(dst: &mut [u8], a: &[u8], b: &[u8]) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    if active_path() == KernelPath::Scalar {
        for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
            *d = std::hint::black_box(*d ^ *x ^ *y);
        }
        return;
    }
    const LANE: usize = 16;
    let mut d = dst.chunks_exact_mut(LANE);
    let mut sa = a.chunks_exact(LANE);
    let mut sb = b.chunks_exact(LANE);
    for ((dc, ac), bc) in (&mut d).zip(&mut sa).zip(&mut sb) {
        let x = u128::from_le_bytes((&*dc).try_into().expect("lane"))
            ^ u128::from_le_bytes(ac.try_into().expect("lane"))
            ^ u128::from_le_bytes(bc.try_into().expect("lane"));
        dc.copy_from_slice(&x.to_le_bytes());
    }
    for ((dr, ar), br) in d
        .into_remainder()
        .iter_mut()
        .zip(sa.remainder())
        .zip(sb.remainder())
    {
        *dr ^= *ar ^ *br;
    }
}

/// The portable wide-word XOR accumulate (always available; public so the
/// benches and equivalence tests can target it regardless of dispatch).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn xor_acc_wide(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len());
    const LANE: usize = 16;
    let mut d = dst.chunks_exact_mut(LANE);
    let mut s = src.chunks_exact(LANE);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let x = u128::from_le_bytes((&*dc).try_into().expect("lane"))
            ^ u128::from_le_bytes(sc.try_into().expect("lane"));
        dc.copy_from_slice(&x.to_le_bytes());
    }
    for (dr, sr) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dr ^= *sr;
    }
}

/// Split-nibble multiplication tables for one GF(2^8) coefficient: because
/// multiplication distributes over XOR and `s = (s & 0x0f) ^ (s & 0xf0)`,
/// `c·s = lo[s & 0x0f] ^ hi[s >> 4]` with two 16-entry tables. Zero bytes
/// need no special case — `lo[0] ^ hi[0] == 0` — which is what makes the
/// loop branch-free, and 16-entry tables are exactly what `pshufb` indexes
/// in one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulTable {
    /// Products of the coefficient with 0x00..=0x0f.
    lo: [u8; 16],
    /// Products of the coefficient with 0x00, 0x10, ..., 0xf0.
    hi: [u8; 16],
}

impl MulTable {
    /// Builds the lo/hi tables for coefficient `c`.
    pub const fn new(c: u8) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        let mut i = 0;
        while i < 16 {
            lo[i] = gf_mul(c, i as u8);
            hi[i] = gf_mul(c, (i as u8) << 4);
            i += 1;
        }
        Self { lo, hi }
    }

    /// The coefficient's product with a single byte.
    #[inline]
    pub fn mul(&self, s: u8) -> u8 {
        self.lo[(s & 0x0f) as usize] ^ self.hi[(s >> 4) as usize]
    }

    /// `out[i] = c * src[i]`, dispatched on [`active_path`].
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn mul_slice(&self, src: &[u8], out: &mut [u8]) {
        assert_eq!(src.len(), out.len());
        match active_path() {
            KernelPath::Scalar => scalar::mul_slice(self.coefficient(), src, out),
            KernelPath::Wide => self.mul_slice_wide(src, out),
            KernelPath::Simd => {
                if !self.mul_slice_simd(src, out) {
                    self.mul_slice_wide(src, out);
                }
            }
        }
    }

    /// `out[i] ^= c * src[i]`, dispatched on [`active_path`].
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn mul_acc_slice(&self, src: &[u8], out: &mut [u8]) {
        assert_eq!(src.len(), out.len());
        match active_path() {
            KernelPath::Scalar => scalar::mul_acc_slice(self.coefficient(), src, out),
            KernelPath::Wide => self.mul_acc_slice_wide(src, out),
            KernelPath::Simd => {
                if !self.mul_acc_slice_simd(src, out) {
                    self.mul_acc_slice_wide(src, out);
                }
            }
        }
    }

    /// Recovers the coefficient (`c·1`).
    #[inline]
    pub fn coefficient(&self) -> u8 {
        self.lo[1]
    }

    /// Portable branch-free `out[i] = c * src[i]` via the nibble tables.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn mul_slice_wide(&self, src: &[u8], out: &mut [u8]) {
        assert_eq!(src.len(), out.len());
        for (s, o) in src.iter().zip(out.iter_mut()) {
            *o = self.lo[(s & 0x0f) as usize] ^ self.hi[(s >> 4) as usize];
        }
    }

    /// Portable branch-free `out[i] ^= c * src[i]` via the nibble tables.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn mul_acc_slice_wide(&self, src: &[u8], out: &mut [u8]) {
        assert_eq!(src.len(), out.len());
        for (s, o) in src.iter().zip(out.iter_mut()) {
            *o ^= self.lo[(s & 0x0f) as usize] ^ self.hi[(s >> 4) as usize];
        }
    }

    /// Vectorized `out[i] = c * src[i]`. Returns `false` (without touching
    /// `out`) when no SIMD path exists on this machine.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[cfg_attr(target_arch = "x86_64", allow(unsafe_code))]
    pub fn mul_slice_simd(&self, src: &[u8], out: &mut [u8]) -> bool {
        assert_eq!(src.len(), out.len());
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { x86::mul_avx2::<false>(&self.lo, &self.hi, src, out) };
                return true;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                // SAFETY: SSSE3 support was just verified at runtime.
                unsafe { x86::mul_ssse3::<false>(&self.lo, &self.hi, src, out) };
                return true;
            }
        }
        false
    }

    /// Vectorized `out[i] ^= c * src[i]`. Returns `false` (without touching
    /// `out`) when no SIMD path exists on this machine.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[cfg_attr(target_arch = "x86_64", allow(unsafe_code))]
    pub fn mul_acc_slice_simd(&self, src: &[u8], out: &mut [u8]) -> bool {
        assert_eq!(src.len(), out.len());
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { x86::mul_avx2::<true>(&self.lo, &self.hi, src, out) };
                return true;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                // SAFETY: SSSE3 support was just verified at runtime.
                unsafe { x86::mul_ssse3::<true>(&self.lo, &self.hi, src, out) };
                return true;
            }
        }
        false
    }
}

/// `pshufb`-based GF(2^8) multiply kernels. Each 16-byte (SSSE3) or
/// 32-byte (AVX2) block is split into nibbles and both table lookups happen
/// as one shuffle each — the ISA-L technique. Unaligned loads/stores
/// (`loadu`/`storeu`) make alignment a non-issue; the sub-register tail is
/// finished by the portable nibble loop.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::*;

    /// SSSE3 16-byte-lane multiply; `ACC` selects `^=` over `=`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports SSSE3. `src` and `out` must be
    /// equal-length (checked by the safe wrappers).
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_ssse3<const ACC: bool>(
        lo: &[u8; 16],
        hi: &[u8; 16],
        src: &[u8],
        out: &mut [u8],
    ) {
        let lo_t = _mm_loadu_si128(lo.as_ptr().cast());
        let hi_t = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0f);
        let mut s = src.chunks_exact(16);
        let mut d = out.chunks_exact_mut(16);
        for (sc, dc) in (&mut s).zip(&mut d) {
            let v = _mm_loadu_si128(sc.as_ptr().cast());
            let lo_n = _mm_and_si128(v, mask);
            let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(v), mask);
            let mut prod =
                _mm_xor_si128(_mm_shuffle_epi8(lo_t, lo_n), _mm_shuffle_epi8(hi_t, hi_n));
            if ACC {
                prod = _mm_xor_si128(prod, _mm_loadu_si128(dc.as_ptr().cast()));
            }
            _mm_storeu_si128(dc.as_mut_ptr().cast(), prod);
        }
        tail::<ACC>(lo, hi, s.remainder(), d.into_remainder());
    }

    /// AVX2 32-byte-lane multiply; `ACC` selects `^=` over `=`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2. `src` and `out` must be
    /// equal-length (checked by the safe wrappers).
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_avx2<const ACC: bool>(
        lo: &[u8; 16],
        hi: &[u8; 16],
        src: &[u8],
        out: &mut [u8],
    ) {
        let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0f);
        let mut s = src.chunks_exact(32);
        let mut d = out.chunks_exact_mut(32);
        for (sc, dc) in (&mut s).zip(&mut d) {
            let v = _mm256_loadu_si256(sc.as_ptr().cast());
            let lo_n = _mm256_and_si256(v, mask);
            let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask);
            let mut prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo_t, lo_n),
                _mm256_shuffle_epi8(hi_t, hi_n),
            );
            if ACC {
                prod = _mm256_xor_si256(prod, _mm256_loadu_si256(dc.as_ptr().cast()));
            }
            _mm256_storeu_si256(dc.as_mut_ptr().cast(), prod);
        }
        tail::<ACC>(lo, hi, s.remainder(), d.into_remainder());
    }

    /// Portable nibble-table finish for the sub-lane remainder.
    fn tail<const ACC: bool>(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], out: &mut [u8]) {
        for (s, o) in src.iter().zip(out.iter_mut()) {
            let p = lo[(s & 0x0f) as usize] ^ hi[(s >> 4) as usize];
            if ACC {
                *o ^= p;
            } else {
                *o = p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn peasant_mul_matches_field() {
        let f = crate::Gf256::get();
        for a in 0..=255u8 {
            for b in [0u8, 1, 2, 3, 0x1d, 0x80, 0xff] {
                assert_eq!(gf_mul(a, b), f.mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn nibble_table_mul_matches_field() {
        let f = crate::Gf256::get();
        for c in 0..=255u8 {
            let t = MulTable::new(c);
            assert_eq!(t.coefficient(), c);
            for s in 0..=255u8 {
                assert_eq!(t.mul(s), f.mul(c, s), "c={c} s={s}");
            }
        }
    }

    #[test]
    fn xor_paths_agree_including_tails() {
        for len in [0usize, 1, 7, 15, 16, 17, 63, 64, 65, 257] {
            let src = sample(len, 0xA5);
            let mut a = sample(len, 0x5A);
            let mut b = a.clone();
            scalar::xor_acc(&mut a, &src);
            xor_acc_wide(&mut b, &src);
            assert_eq!(a, b, "len={len}");
        }
    }

    #[test]
    fn xor_acc2_is_two_xor_accs() {
        let x = sample(100, 1);
        let y = sample(100, 2);
        let mut a = sample(100, 3);
        let mut b = a.clone();
        xor_acc2(&mut a, &x, &y);
        xor_acc_wide(&mut b, &x);
        xor_acc_wide(&mut b, &y);
        assert_eq!(a, b);
    }

    #[test]
    fn forced_paths_round_trip() {
        assert!(matches!(active_path(), KernelPath::Wide | KernelPath::Simd));
        force_path(Some(KernelPath::Scalar));
        assert_eq!(active_path(), KernelPath::Scalar);
        force_path(None);
        assert_ne!(active_path(), KernelPath::Scalar);
        assert_eq!(KernelPath::Simd.name(), "simd");
    }
}
