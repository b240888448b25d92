//! The four NIST SP 800-22 randomness tests used in Appendix B.
//!
//! The paper tests each scan session's target addresses — the 64-bit IIDs
//! and the 32 subnet bits after the telescope's fixed prefix separately —
//! with the frequency (monobit), runs, spectral (FFT) and cumulative-sums
//! tests, at significance level α = 0.01, on sessions of ≥ 100 packets.
//!
//! Implementation notes:
//! * p-values follow SP 800-22 rev. 1a exactly for frequency, runs and
//!   cusum;
//! * the spectral test processes the largest power-of-two prefix of the
//!   sequence (the reference code's DFT is also applied to fixed-size
//!   blocks; thresholding constants follow the revised 0.95·n/2 form);
//! * bits are stored packed, 64 per `u64` word, MSB first. Frequency is a
//!   popcount, runs counting is an XOR against the shifted word, cusum
//!   walks the words through a per-byte prefix-extreme table without
//!   allocating, and the spectral test runs a real-input split FFT. Its
//!   twiddle tables live in one read-only [`FftTables`] array that serves
//!   every transform size up to the largest and is shareable across
//!   threads; its ping-pong buffers live in a per-thread [`FftScratch`]
//!   that grows to the largest transform and is reused for every later
//!   one; its spectrum reconstruction factors are regenerated block by
//!   block instead of stored. The
//!   statistics they feed into the p-value formulas (bit counts, run
//!   counts, peak partial sums, below-threshold bin counts) are integers,
//!   so the packed kernels reproduce the scalar `&[bool]` reference
//!   p-values (`sixscope_oracle::nist`) bit for bit — which the property
//!   tests in `tests/prop.rs` pin.

use crate::special::{erfc, normal_cdf};
use serde::{Deserialize, Serialize};

/// The tests the paper applies (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NistTest {
    /// Frequency (monobit).
    Frequency,
    /// Runs.
    Runs,
    /// Discrete Fourier transform (spectral).
    Fft,
    /// Cumulative sums, forward.
    CusumForward,
    /// Cumulative sums, backward.
    CusumBackward,
}

impl NistTest {
    /// The tests in the order of Fig. 17.
    pub const ALL: [NistTest; 5] = [
        NistTest::Frequency,
        NistTest::Runs,
        NistTest::Fft,
        NistTest::CusumForward,
        NistTest::CusumBackward,
    ];

    /// Short label for report rows.
    pub fn name(self) -> &'static str {
        match self {
            NistTest::Frequency => "frequency",
            NistTest::Runs => "runs",
            NistTest::Fft => "fft",
            NistTest::CusumForward => "cusum0",
            NistTest::CusumBackward => "cusum1",
        }
    }
}

/// Outcome of one test on one bit sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NistOutcome {
    /// Which test ran.
    pub test: NistTest,
    /// The computed p-value in `[0, 1]`.
    pub p_value: f64,
}

impl NistOutcome {
    /// Success at the paper's significance level (p ≥ 0.01 means the
    /// sequence is consistent with randomness).
    pub fn passes(&self) -> bool {
        self.p_value >= 0.01
    }
}

/// A packed bit sequence under test: 64 bits per word, MSB first, so
/// sequence bit `i` lives at bit `63 - i % 64` of `words[i / 64]`.
/// Unused low bits of the last word are always zero.
#[derive(Debug, Clone, Default)]
pub struct BitSequence {
    words: Vec<u64>,
    len: usize,
}

impl BitSequence {
    /// Empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the `count` least significant bits of `value`, MSB first.
    pub fn push_bits(&mut self, value: u128, count: u32) {
        assert!(count <= 128);
        let mut remaining = count;
        while remaining > 0 {
            let used = (self.len % 64) as u32;
            if used == 0 {
                self.words.push(0);
            }
            let avail = 64 - used;
            let take = remaining.min(avail);
            let chunk = (value >> (remaining - take)) as u64 & mask_low(take);
            let last = self.words.last_mut().expect("word pushed above");
            *last |= chunk << (avail - take);
            self.len += take as usize;
            remaining -= take;
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw packed words (MSB-first; trailing bits of the last word zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The `i`-th bit of the sequence.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len);
        (self.words[i / 64] >> (63 - i % 64)) & 1 == 1
    }

    /// Unpacks to a `bool` vector (the input of the scalar reference
    /// kernels in `sixscope_oracle::nist`).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.bit(i)).collect()
    }

    /// Runs one test, building spectral tables and buffers internally
    /// (only the spectral test needs them).
    pub fn run(&self, test: NistTest) -> NistOutcome {
        let lengths = (test == NistTest::Fft).then_some(self.len);
        self.run_with(
            test,
            &FftTables::for_lengths(lengths),
            &mut FftScratch::new(),
        )
    }

    /// Runs one test over the caller's shared spectral tables and reusable
    /// buffers.
    ///
    /// # Panics
    /// If `test` is [`NistTest::Fft`] and `tables` was built for shorter
    /// sequences only (see [`FftTables::for_lengths`]).
    pub fn run_with(
        &self,
        test: NistTest,
        tables: &FftTables,
        scratch: &mut FftScratch,
    ) -> NistOutcome {
        let p_value = match test {
            NistTest::Frequency => frequency_p(&self.words, self.len),
            NistTest::Runs => runs_p(&self.words, self.len),
            NistTest::Fft => fft_p(&self.words, self.len, tables, scratch),
            NistTest::CusumForward => cusum_p(&self.words, self.len, false),
            NistTest::CusumBackward => cusum_p(&self.words, self.len, true),
        };
        // The rational erfc approximation can overshoot 1 by ~1e-7.
        NistOutcome {
            test,
            p_value: p_value.clamp(0.0, 1.0),
        }
    }

    /// Runs all five tests.
    pub fn run_all(&self) -> Vec<NistOutcome> {
        self.run_all_with(&FftTables::for_lengths([self.len]), &mut FftScratch::new())
    }

    /// Runs all five tests over the caller's shared spectral tables and
    /// reusable buffers (see [`BitSequence::run_with`]).
    pub fn run_all_with(&self, tables: &FftTables, scratch: &mut FftScratch) -> Vec<NistOutcome> {
        NistTest::ALL
            .iter()
            .map(|&t| self.run_with(t, tables, scratch))
            .collect()
    }
}

fn mask_low(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// SP 800-22 §2.1 — frequency (monobit), via popcount.
fn frequency_p(words: &[u64], len: usize) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let ones: i64 = words.iter().map(|w| w.count_ones() as i64).sum();
    // Σ(±1) = ones - zeros.
    let s = 2 * ones - len as i64;
    let s_obs = (s.abs() as f64) / (len as f64).sqrt();
    erfc(s_obs / std::f64::consts::SQRT_2)
}

/// Number of adjacent unequal bit pairs, via XOR against the 1-shifted word.
fn transitions(words: &[u64], len: usize) -> u64 {
    let mut trans = 0u64;
    let mut prev_last: Option<u64> = None;
    for (wi, &w) in words.iter().enumerate() {
        let m = if wi + 1 == words.len() {
            (len - wi * 64) as u32
        } else {
            64
        };
        if m >= 2 {
            // Bit v of w ^ (w << 1) is bit v xor bit v+1 of w; the pairs
            // internal to this word sit in the top m-1 value bits.
            let d = w ^ (w << 1);
            trans += (d & (!0u64 << (65 - m))).count_ones() as u64;
        }
        if let Some(p) = prev_last {
            trans += (p ^ (w >> 63)) & 1;
        }
        prev_last = Some((w >> (64 - m)) & 1);
    }
    trans
}

/// SP 800-22 §2.3 — runs.
fn runs_p(words: &[u64], len: usize) -> f64 {
    if len < 2 {
        return 0.0;
    }
    let ones: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
    let pi = ones as f64 / len as f64;
    // Prerequisite frequency check.
    if (pi - 0.5).abs() >= 2.0 / (len as f64).sqrt() {
        return 0.0;
    }
    let v_obs = 1 + transitions(words, len);
    let n = len as f64;
    let num = (v_obs as f64 - 2.0 * n * pi * (1.0 - pi)).abs();
    let den = 2.0 * (2.0 * n).sqrt() * pi * (1.0 - pi);
    erfc(num / den)
}

/// SP 800-22 §2.6 — discrete Fourier transform (spectral).
///
/// The ±1 samples are real, so the largest power-of-two prefix `n2` is
/// packed even/odd into a complex array of length `n2/2`, transformed once,
/// and the first `n2/2` bins of the full DFT reconstructed — half the
/// butterflies of the complex transform the scalar reference runs. The
/// p-value depends only on the *count* of bins below the (irrational)
/// threshold, so the ~1e-12 relative drift this reordering introduces in
/// the magnitudes never reaches the p-value bits.
fn fft_p(words: &[u64], len: usize, tables: &FftTables, scratch: &mut FftScratch) -> f64 {
    let Some(m) = half_transform_len(len) else {
        return 0.0;
    };
    let n2 = 2 * m;
    assert!(
        tables.re.len() + 1 >= m,
        "FftTables built for sequences shorter than {len} bits"
    );
    scratch.load_even_odd(words, n2);
    scratch.re2.resize(m, 0.0);
    scratch.im2.resize(m, 0.0);
    let in_first = stockham_fft(
        &mut scratch.re,
        &mut scratch.im,
        &mut scratch.re2,
        &mut scratch.im2,
        tables,
    );
    let n = n2 as f64;
    let threshold = ((1.0 / 0.05f64).ln() * n).sqrt();
    let (re, im) = if in_first {
        (&scratch.re, &scratch.im)
    } else {
        (&scratch.re2, &scratch.im2)
    };
    let n1 = if wide_lanes_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `wide_lanes_available` checked for AVX support.
        unsafe {
            spectral_count_avx(re, im, threshold)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!()
    } else {
        spectral_count(re, im, threshold)
    };
    let n1 = n1 as f64;
    let n0 = 0.95 * m as f64;
    let d = (n1 - n0) / (n * 0.95 * 0.05 / 4.0).sqrt();
    erfc(d.abs() / std::f64::consts::SQRT_2)
}

/// The spectral test's half-transform length for a `len`-bit sequence:
/// half the largest power of two `≤ len`, or `None` below 16 bits (where
/// the test fails without a transform).
fn half_transform_len(len: usize) -> Option<usize> {
    (len >= 16).then(|| 1usize << (usize::BITS - 2 - len.leading_zeros()))
}

/// Read-only spectral-test twiddle tables, shared by every thread that
/// runs sequences through `&FftTables`.
///
/// The table for transform length `l` holds `e^{-2πij/l}` for `j < l/2`,
/// packed at offset `l/2 - 1`, and is computed from `l` alone. So the
/// tables for every length up to the largest one a set of sequences needs
/// form one array, a smaller transform reads a prefix of it, and a
/// sequence's p-values do not depend on which other sequences share it.
#[derive(Debug)]
pub struct FftTables {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl FftTables {
    /// Tables for sequences of up to the longest of `lengths` bits.
    pub fn for_lengths(lengths: impl IntoIterator<Item = usize>) -> Self {
        let m = lengths
            .into_iter()
            .filter_map(half_transform_len)
            .max()
            .unwrap_or(0);
        Self::for_half_len(m)
    }

    /// Tables for transforms of up to `m` points.
    fn for_half_len(m: usize) -> Self {
        let mut t = FftTables {
            re: vec![0.0; m.saturating_sub(1)],
            im: vec![0.0; m.saturating_sub(1)],
        };
        // The table for length 2h is the reconstruction factors of a
        // half-size-h transform.
        let mut h = 1;
        while 2 * h <= m {
            let twiddles = Twiddles::new(h);
            for k in (0..h).step_by(TWIDDLE_BLOCK) {
                let block = h - 1 + k..h - 1 + (k + TWIDDLE_BLOCK).min(h);
                twiddles.block(&mut t.re[block.clone()], &mut t.im[block], k);
            }
            h *= 2;
        }
        t
    }
}

/// One thread's spectral-test ping-pong buffers. They grow to the largest
/// transform run through them and are reused, not reallocated, for every
/// later transform, so run the longest sequences first.
#[derive(Debug, Default)]
pub struct FftScratch {
    re: Vec<f64>,
    im: Vec<f64>,
    re2: Vec<f64>,
    im2: Vec<f64>,
}

impl FftScratch {
    /// Empty scratch; the buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits the first `n2` bits into ±1 samples, even positions into
    /// `re`, odd into `im` (`n2` is a power of two ≥ 16, so pairs never
    /// straddle a word).
    fn load_even_odd(&mut self, words: &[u64], n2: usize) {
        let m = n2 / 2;
        self.re.clear();
        self.im.clear();
        self.re.reserve(m);
        self.im.reserve(m);
        for &w in &words[..n2 / 64] {
            for j in 0..32 {
                self.re.push(pm1(w >> (63 - 2 * j)));
                self.im.push(pm1(w >> (62 - 2 * j)));
            }
        }
        let rem = n2 % 64;
        if rem > 0 {
            let w = words[n2 / 64];
            for j in 0..rem / 2 {
                self.re.push(pm1(w >> (63 - 2 * j)));
                self.im.push(pm1(w >> (62 - 2 * j)));
            }
        }
    }
}

fn pm1(bit: u64) -> f64 {
    if bit & 1 == 1 {
        1.0
    } else {
        -1.0
    }
}

/// Entries per twiddle block: each block restarts its recurrence from
/// `sin_cos`, which keeps the accumulated error ~1 ulp.
const TWIDDLE_BLOCK: usize = 32;

/// The reconstruction factors `e^{-2πik/2m}` of half-transform size `m`
/// (also the stage table for transform length `2m`), generated a block at
/// a time.
#[derive(Clone, Copy)]
struct Twiddles {
    ang: f64,
    step_re: f64,
    step_im: f64,
}

impl Twiddles {
    fn new(m: usize) -> Self {
        let ang = -std::f64::consts::TAU / (2 * m) as f64;
        let (step_im, step_re) = ang.sin_cos();
        Twiddles {
            ang,
            step_re,
            step_im,
        }
    }

    /// Fills `re[j] + i·im[j]` with factor `k + j` (`k` a multiple of
    /// [`TWIDDLE_BLOCK`], at most one block): `sin_cos` at `k`, then a
    /// complex-multiply recurrence.
    #[inline(always)]
    fn block(self, re: &mut [f64], im: &mut [f64], k: usize) {
        let (s, c) = (self.ang * k as f64).sin_cos();
        let (mut cur_re, mut cur_im) = (c, s);
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            *r = cur_re;
            *i = cur_im;
            let next_re = cur_re * self.step_re - cur_im * self.step_im;
            cur_im = cur_re * self.step_im + cur_im * self.step_re;
            cur_re = next_re;
        }
    }
}

/// Iterative radix-2 FFT (length must be a power of two).
///
/// Builds its twiddle tables and ping-pong buffer on every call; hot paths
/// that transform many sequences should go through
/// [`BitSequence::run_with`], which takes shared [`FftTables`] and a
/// reusable [`FftScratch`].
pub fn fft_in_place(re: &mut [f64], im: &mut [f64]) {
    let tables = FftTables::for_half_len(re.len());
    let mut re2 = vec![0.0; re.len()];
    let mut im2 = vec![0.0; im.len()];
    if !stockham_fft(re, im, &mut re2, &mut im2, &tables) {
        re.copy_from_slice(&re2);
        im.copy_from_slice(&im2);
    }
}

/// Stockham autosort radix-2 FFT (decimation in frequency): natural-order
/// input and output, no bit-reversal pass, contiguous reads/writes in the
/// inner loop with a loop-invariant twiddle, so it vectorizes. Ping-pongs
/// between the `x` and `y` buffers each stage; returns true when the
/// result ends in `x`.
///
/// Stage with transform length `l` (halving from `n` to 2) and stride
/// `s = n/l` computes, for `p < l/2`, `q < s`:
/// `y[q + s·2p] = a + b` and `y[q + s·(2p+1)] = (a − b)·e^{-2πip/l}` with
/// `a = x[q + s·p]`, `b = x[q + s·(p + l/2)]`.
fn stockham_fft<'a>(
    mut x_re: &'a mut [f64],
    mut x_im: &'a mut [f64],
    mut y_re: &'a mut [f64],
    mut y_im: &'a mut [f64],
    tables: &FftTables,
) -> bool {
    let n = x_re.len();
    debug_assert!(n.is_power_of_two());
    let wide = wide_lanes_available();
    let mut in_x = true;
    let mut l = n;
    let mut s = 1usize;
    if n.trailing_zeros() % 2 == 1 && l >= 2 {
        // Odd power of two: one radix-2 stage, then pure radix-4.
        let m = l / 2;
        // The packed stage tables hold e^{-2πip/len} for len = 2, 4, ...,
        // so the table for length `len` starts at len/2 - 1.
        let toff = m - 1;
        let (tr, ti) = (&tables.re[toff..toff + m], &tables.im[toff..toff + m]);
        if wide {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `wide_lanes_available` checked for AVX support.
            unsafe {
                stockham_stage2_avx(x_re, x_im, y_re, y_im, tr, ti, s)
            };
        } else {
            stockham_stage2(x_re, x_im, y_re, y_im, tr, ti, s);
        }
        std::mem::swap(&mut x_re, &mut y_re);
        std::mem::swap(&mut x_im, &mut y_im);
        in_x = !in_x;
        l /= 2;
        s *= 2;
    }
    while l >= 4 {
        let m = l / 4;
        let t1off = l / 2 - 1; // e^{-2πip/l}
        let t2off = l / 4 - 1; // e^{-2πip/(l/2)} = e^{-2πi·2p/l}
        let (t1r, t1i) = (&tables.re[t1off..t1off + m], &tables.im[t1off..t1off + m]);
        let (t2r, t2i) = (&tables.re[t2off..t2off + m], &tables.im[t2off..t2off + m]);
        if wide {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `wide_lanes_available` checked for AVX support.
            unsafe {
                stockham_stage4_avx(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i, s)
            };
        } else {
            stockham_stage4(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i, s);
        }
        std::mem::swap(&mut x_re, &mut y_re);
        std::mem::swap(&mut x_im, &mut y_im);
        in_x = !in_x;
        l /= 4;
        s *= 4;
    }
    in_x
}

/// Reconstructs the first `n2/2` bins of the full real-input DFT from the
/// half-size transform `Z` and counts magnitudes below `threshold`:
/// `X[k] = E[k] + w^k · O[k]` with `E[k] = (Z[k] + conj(Z[m-k]))/2`,
/// `O[k] = (Z[k] - conj(Z[m-k]))/(2i)` and `w = e^{-2πi/n2}` (the
/// factors `w^k` are regenerated per block, see [`Twiddles`]).
#[inline(always)]
fn spectral_count(re: &[f64], im: &[f64], t: f64) -> usize {
    let m = re.len();
    let twiddles = Twiddles::new(m);
    let (mut w_re, mut w_im) = ([0.0; TWIDDLE_BLOCK], [0.0; TWIDDLE_BLOCK]);
    let mut n1 = 0usize;
    for k0 in (0..m).step_by(TWIDDLE_BLOCK) {
        let len = TWIDDLE_BLOCK.min(m - k0);
        twiddles.block(&mut w_re[..len], &mut w_im[..len], k0);
        for j in 0..len {
            let k = k0 + j;
            let mk = (m - k) & (m - 1);
            let (zr, zi) = (re[k], im[k]);
            let (yr, yi) = (re[mk], -im[mk]);
            let (er, ei) = ((zr + yr) / 2.0, (zi + yi) / 2.0);
            let (or, oi) = ((zi - yi) / 2.0, -(zr - yr) / 2.0);
            let (c, s) = (w_re[j], w_im[j]);
            let xr = er + c * or - s * oi;
            let xi = ei + c * oi + s * or;
            if (xr * xr + xi * xi).sqrt() < t {
                n1 += 1;
            }
        }
    }
    n1
}

/// [`spectral_count`] compiled with 256-bit lanes; same operations, same
/// results (see [`wide_lanes_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn spectral_count_avx(re: &[f64], im: &[f64], t: f64) -> usize {
    spectral_count(re, im, t)
}

/// Whether 256-bit float lanes are available at runtime. AVX widens the
/// auto-vectorized loops without changing any individual IEEE operation
/// (no FMA contraction is enabled), so results are bit-identical to the
/// baseline path and the choice cannot perturb the determinism contract.
fn wide_lanes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One radix-2 Stockham stage: `m` butterfly groups of contiguous width
/// `s`.
#[inline(always)]
fn stockham_stage2(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    tr: &[f64],
    ti: &[f64],
    s: usize,
) {
    let m = tr.len();
    if s == 1 {
        // First-stage special case: one butterfly per group, so skip the
        // per-group slice setup (same operations in the same order, so the
        // results are bit-identical to the general path).
        for p in 0..m {
            let (wr, wi) = (tr[p], ti[p]);
            let (ar, ai) = (x_re[p], x_im[p]);
            let (br, bi) = (x_re[p + m], x_im[p + m]);
            y_re[2 * p] = ar + br;
            y_im[2 * p] = ai + bi;
            let (dr, di) = (ar - br, ai - bi);
            y_re[2 * p + 1] = dr * wr - di * wi;
            y_im[2 * p + 1] = dr * wi + di * wr;
        }
        return;
    }
    for p in 0..m {
        let (wr, wi) = (tr[p], ti[p]);
        let xa_re = &x_re[s * p..s * p + s];
        let xa_im = &x_im[s * p..s * p + s];
        let xb_re = &x_re[s * (p + m)..s * (p + m) + s];
        let xb_im = &x_im[s * (p + m)..s * (p + m) + s];
        let (ya_re, yb_re) = y_re[s * 2 * p..s * 2 * p + 2 * s].split_at_mut(s);
        let (ya_im, yb_im) = y_im[s * 2 * p..s * 2 * p + 2 * s].split_at_mut(s);
        for q in 0..s {
            let (ar, ai) = (xa_re[q], xa_im[q]);
            let (br, bi) = (xb_re[q], xb_im[q]);
            ya_re[q] = ar + br;
            ya_im[q] = ai + bi;
            let (dr, di) = (ar - br, ai - bi);
            yb_re[q] = dr * wr - di * wi;
            yb_im[q] = dr * wi + di * wr;
        }
    }
}

/// [`stockham_stage2`] compiled with 256-bit lanes; same operations, same
/// results (see [`wide_lanes_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn stockham_stage2_avx(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    tr: &[f64],
    ti: &[f64],
    s: usize,
) {
    stockham_stage2(x_re, x_im, y_re, y_im, tr, ti, s);
}

/// One radix-4 Stockham stage (`m = l/4` groups of width `s`): for
/// `a, b, c, d = x[s(p + km)]`, `k = 0..4`,
/// `y[s·4p]     = (a+c) + (b+d)`,
/// `y[s(4p+1)]  = w¹ₚ·((a−c) − i(b−d))`,
/// `y[s(4p+2)]  = w²ₚ·((a+c) − (b+d))`,
/// `y[s(4p+3)]  = w³ₚ·((a−c) + i(b−d))`, with `wₚ = e^{-2πip/l}`.
/// `w¹` and `w²` come straight from the packed stage tables (`w²ₚ` is the
/// length-`l/2` table entry); `w³ = w¹·w²` is formed per group.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stockham_stage4(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    t1r: &[f64],
    t1i: &[f64],
    t2r: &[f64],
    t2i: &[f64],
    s: usize,
) {
    let m = t1r.len();
    if s == 1 {
        // First-stage special case: one butterfly per group, so skip the
        // per-group slice setup (same operations in the same order, so the
        // results are bit-identical to the general path).
        for p in 0..m {
            let (w1r, w1i) = (t1r[p], t1i[p]);
            let (w2r, w2i) = (t2r[p], t2i[p]);
            let (w3r, w3i) = (w1r * w2r - w1i * w2i, w1r * w2i + w1i * w2r);
            let (ar, ai) = (x_re[p], x_im[p]);
            let (br, bi) = (x_re[p + m], x_im[p + m]);
            let (cr, ci) = (x_re[p + 2 * m], x_im[p + 2 * m]);
            let (dr, di) = (x_re[p + 3 * m], x_im[p + 3 * m]);
            let (apcr, apci) = (ar + cr, ai + ci);
            let (amcr, amci) = (ar - cr, ai - ci);
            let (bpdr, bpdi) = (br + dr, bi + di);
            let (bmdr, bmdi) = (br - dr, bi - di);
            y_re[4 * p] = apcr + bpdr;
            y_im[4 * p] = apci + bpdi;
            let (t1re, t1im) = (amcr + bmdi, amci - bmdr);
            y_re[4 * p + 1] = t1re * w1r - t1im * w1i;
            y_im[4 * p + 1] = t1re * w1i + t1im * w1r;
            let (t2re, t2im) = (apcr - bpdr, apci - bpdi);
            y_re[4 * p + 2] = t2re * w2r - t2im * w2i;
            y_im[4 * p + 2] = t2re * w2i + t2im * w2r;
            let (t3re, t3im) = (amcr - bmdi, amci + bmdr);
            y_re[4 * p + 3] = t3re * w3r - t3im * w3i;
            y_im[4 * p + 3] = t3re * w3i + t3im * w3r;
        }
        return;
    }
    // Narrow groups (the second/third stages) spend more time on slice
    // bookkeeping than arithmetic; a compile-time width lets the q-loop
    // unroll completely. Same operations in the same order either way.
    match s {
        2 => return stockham_stage4_fixed::<2>(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i),
        4 => return stockham_stage4_fixed::<4>(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i),
        8 => return stockham_stage4_fixed::<8>(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i),
        _ => {}
    }
    for p in 0..m {
        let (w1r, w1i) = (t1r[p], t1i[p]);
        let (w2r, w2i) = (t2r[p], t2i[p]);
        let (w3r, w3i) = (w1r * w2r - w1i * w2i, w1r * w2i + w1i * w2r);
        let xa_re = &x_re[s * p..s * p + s];
        let xa_im = &x_im[s * p..s * p + s];
        let xb_re = &x_re[s * (p + m)..s * (p + m) + s];
        let xb_im = &x_im[s * (p + m)..s * (p + m) + s];
        let xc_re = &x_re[s * (p + 2 * m)..s * (p + 2 * m) + s];
        let xc_im = &x_im[s * (p + 2 * m)..s * (p + 2 * m) + s];
        let xd_re = &x_re[s * (p + 3 * m)..s * (p + 3 * m) + s];
        let xd_im = &x_im[s * (p + 3 * m)..s * (p + 3 * m) + s];
        let (y01_re, y23_re) = y_re[s * 4 * p..s * 4 * p + 4 * s].split_at_mut(2 * s);
        let (y0_re, y1_re) = y01_re.split_at_mut(s);
        let (y2_re, y3_re) = y23_re.split_at_mut(s);
        let (y01_im, y23_im) = y_im[s * 4 * p..s * 4 * p + 4 * s].split_at_mut(2 * s);
        let (y0_im, y1_im) = y01_im.split_at_mut(s);
        let (y2_im, y3_im) = y23_im.split_at_mut(s);
        for q in 0..s {
            let (ar, ai) = (xa_re[q], xa_im[q]);
            let (br, bi) = (xb_re[q], xb_im[q]);
            let (cr, ci) = (xc_re[q], xc_im[q]);
            let (dr, di) = (xd_re[q], xd_im[q]);
            let (apcr, apci) = (ar + cr, ai + ci);
            let (amcr, amci) = (ar - cr, ai - ci);
            let (bpdr, bpdi) = (br + dr, bi + di);
            let (bmdr, bmdi) = (br - dr, bi - di);
            y0_re[q] = apcr + bpdr;
            y0_im[q] = apci + bpdi;
            let (t1re, t1im) = (amcr + bmdi, amci - bmdr);
            y1_re[q] = t1re * w1r - t1im * w1i;
            y1_im[q] = t1re * w1i + t1im * w1r;
            let (t2re, t2im) = (apcr - bpdr, apci - bpdi);
            y2_re[q] = t2re * w2r - t2im * w2i;
            y2_im[q] = t2re * w2i + t2im * w2r;
            let (t3re, t3im) = (amcr - bmdi, amci + bmdr);
            y3_re[q] = t3re * w3r - t3im * w3i;
            y3_im[q] = t3re * w3i + t3im * w3r;
        }
    }
}

/// [`stockham_stage4`] with the group width `S` fixed at compile time so
/// the inner loop unrolls; identical operations and order, so identical
/// results.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stockham_stage4_fixed<const S: usize>(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    t1r: &[f64],
    t1i: &[f64],
    t2r: &[f64],
    t2i: &[f64],
) {
    let m = t1r.len();
    let at = |v: &[f64], off: usize| -> [f64; S] { v[off..off + S].try_into().unwrap() };
    for p in 0..m {
        let (w1r, w1i) = (t1r[p], t1i[p]);
        let (w2r, w2i) = (t2r[p], t2i[p]);
        let (w3r, w3i) = (w1r * w2r - w1i * w2i, w1r * w2i + w1i * w2r);
        let xa_re = at(x_re, S * p);
        let xa_im = at(x_im, S * p);
        let xb_re = at(x_re, S * (p + m));
        let xb_im = at(x_im, S * (p + m));
        let xc_re = at(x_re, S * (p + 2 * m));
        let xc_im = at(x_im, S * (p + 2 * m));
        let xd_re = at(x_re, S * (p + 3 * m));
        let xd_im = at(x_im, S * (p + 3 * m));
        let (y01_re, y23_re) = y_re[S * 4 * p..S * 4 * p + 4 * S].split_at_mut(2 * S);
        let (y0_re, y1_re) = y01_re.split_at_mut(S);
        let (y2_re, y3_re) = y23_re.split_at_mut(S);
        let (y01_im, y23_im) = y_im[S * 4 * p..S * 4 * p + 4 * S].split_at_mut(2 * S);
        let (y0_im, y1_im) = y01_im.split_at_mut(S);
        let (y2_im, y3_im) = y23_im.split_at_mut(S);
        for q in 0..S {
            let (ar, ai) = (xa_re[q], xa_im[q]);
            let (br, bi) = (xb_re[q], xb_im[q]);
            let (cr, ci) = (xc_re[q], xc_im[q]);
            let (dr, di) = (xd_re[q], xd_im[q]);
            let (apcr, apci) = (ar + cr, ai + ci);
            let (amcr, amci) = (ar - cr, ai - ci);
            let (bpdr, bpdi) = (br + dr, bi + di);
            let (bmdr, bmdi) = (br - dr, bi - di);
            y0_re[q] = apcr + bpdr;
            y0_im[q] = apci + bpdi;
            let (t1re, t1im) = (amcr + bmdi, amci - bmdr);
            y1_re[q] = t1re * w1r - t1im * w1i;
            y1_im[q] = t1re * w1i + t1im * w1r;
            let (t2re, t2im) = (apcr - bpdr, apci - bpdi);
            y2_re[q] = t2re * w2r - t2im * w2i;
            y2_im[q] = t2re * w2i + t2im * w2r;
            let (t3re, t3im) = (amcr - bmdi, amci + bmdr);
            y3_re[q] = t3re * w3r - t3im * w3i;
            y3_im[q] = t3re * w3i + t3im * w3r;
        }
    }
}

/// [`stockham_stage4`] compiled with 256-bit lanes; same operations, same
/// results (see [`wide_lanes_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn stockham_stage4_avx(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    t1r: &[f64],
    t1i: &[f64],
    t2r: &[f64],
    t2i: &[f64],
    s: usize,
) {
    stockham_stage4(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i, s);
}

/// Per-byte cusum steps: net ±1 total plus the prefix-sum extremes,
/// MSB-first within the byte.
#[derive(Clone, Copy)]
struct ByteCusum {
    total: i8,
    min: i8,
    max: i8,
}

static CUSUM_LUT: [ByteCusum; 256] = build_cusum_lut();

const fn build_cusum_lut() -> [ByteCusum; 256] {
    let mut t = [ByteCusum {
        total: 0,
        min: 0,
        max: 0,
    }; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut sum = 0i8;
        let mut min = 0i8;
        let mut max = 0i8;
        let mut i = 0;
        while i < 8 {
            sum += if (b >> (7 - i)) & 1 == 1 { 1 } else { -1 };
            if sum < min {
                min = sum;
            }
            if sum > max {
                max = sum;
            }
            i += 1;
        }
        t[b] = ByteCusum {
            total: sum,
            min,
            max,
        };
        b += 1;
    }
    t
}

/// SP 800-22 §2.13 — cumulative sums, allocation-free.
///
/// The partial sums of ±1 steps are small integers, so the peak |sum| is
/// tracked in `i64` by walking the packed words a byte at a time through
/// [`CUSUM_LUT`] (in reverse, via `reverse_bits`, for the backward
/// variant); `|sum + p|` over a byte's prefixes peaks at one of the two
/// prefix extremes.
fn cusum_step_byte(b: u8, sum: &mut i64, z: &mut i64) {
    let e = CUSUM_LUT[b as usize];
    *z = (*z)
        .max((*sum + e.max as i64).abs())
        .max((*sum + e.min as i64).abs());
    *sum += e.total as i64;
}

fn cusum_step_bit(bit: u64, sum: &mut i64, z: &mut i64) {
    *sum += if bit & 1 == 1 { 1 } else { -1 };
    *z = (*z).max(sum.abs());
}

fn cusum_p(words: &[u64], len: usize, backward: bool) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let mut sum = 0i64;
    let mut z = 0i64;
    let last_m = len - (words.len() - 1) * 64;
    if backward {
        // The last word's valid bits, last bit first.
        let w = words[words.len() - 1];
        for i in (0..last_m).rev() {
            cusum_step_bit(w >> (63 - i), &mut sum, &mut z);
        }
        for &w in words[..words.len() - 1].iter().rev() {
            let r = w.reverse_bits();
            for j in 0..8 {
                cusum_step_byte((r >> (56 - 8 * j)) as u8, &mut sum, &mut z);
            }
        }
    } else {
        for &w in &words[..words.len() - 1] {
            for j in 0..8 {
                cusum_step_byte((w >> (56 - 8 * j)) as u8, &mut sum, &mut z);
            }
        }
        let w = words[words.len() - 1];
        let full_bytes = last_m / 8;
        for j in 0..full_bytes {
            cusum_step_byte((w >> (56 - 8 * j)) as u8, &mut sum, &mut z);
        }
        for i in full_bytes * 8..last_m {
            cusum_step_bit(w >> (63 - i), &mut sum, &mut z);
        }
    }
    if z == 0 {
        return 0.0;
    }
    let n = len as f64;
    let z = z as f64;
    let sqrt_n = n.sqrt();
    let mut p = 1.0;
    let k_lo = (((-n / z) + 1.0) / 4.0).floor() as i64;
    let k_hi = (((n / z) - 1.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        let k = k as f64;
        p -= normal_cdf((4.0 * k + 1.0) * z / sqrt_n) - normal_cdf((4.0 * k - 1.0) * z / sqrt_n);
    }
    let k_lo = (((-n / z) - 3.0) / 4.0).floor() as i64;
    let k_hi = (((n / z) - 1.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        let k = k as f64;
        p += normal_cdf((4.0 * k + 3.0) * z / sqrt_n) - normal_cdf((4.0 * k + 1.0) * z / sqrt_n);
    }
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_types::Xoshiro256pp;

    fn from_bits(s: &str) -> BitSequence {
        let mut seq = BitSequence::new();
        for c in s.chars() {
            seq.push_bits(if c == '1' { 1 } else { 0 }, 1);
        }
        seq
    }

    #[test]
    fn frequency_sp80022_example() {
        // SP 800-22 §2.1.8: ε = 1100100100001111110110101010001000,
        // n = 100-digit example is longer; use the documented 10-bit case:
        // ε = 1011010101, S = 2, p-value = 0.527089.
        let seq = from_bits("1011010101");
        let out = seq.run(NistTest::Frequency);
        assert!((out.p_value - 0.527089).abs() < 1e-4, "p = {}", out.p_value);
        assert!(out.passes());
    }

    #[test]
    fn runs_sp80022_example() {
        // SP 800-22 §2.3.8: ε = 1001101011, n = 10, p-value = 0.147232.
        let seq = from_bits("1001101011");
        let out = seq.run(NistTest::Runs);
        assert!((out.p_value - 0.147232).abs() < 1e-4, "p = {}", out.p_value);
    }

    #[test]
    fn cusum_sp80022_example() {
        // SP 800-22 §2.13.8: ε = 1011010111, n = 10, z = 4 (forward),
        // p-value = 0.4116588.
        let seq = from_bits("1011010111");
        let out = seq.run(NistTest::CusumForward);
        assert!(
            (out.p_value - 0.4116588).abs() < 1e-3,
            "p = {}",
            out.p_value
        );
    }

    #[test]
    fn constant_sequence_fails_everything() {
        let mut seq = BitSequence::new();
        seq.push_bits(0, 128);
        seq.push_bits(0, 128);
        for out in seq.run_all() {
            assert!(!out.passes(), "{:?} unexpectedly passed", out.test);
        }
    }

    #[test]
    fn alternating_sequence_fails_runs_and_fft() {
        let mut seq = BitSequence::new();
        for _ in 0..256 {
            seq.push_bits(0b10, 2);
        }
        // Perfectly balanced, so frequency passes...
        assert!(seq.run(NistTest::Frequency).passes());
        // ...but the oscillation is wildly non-random.
        assert!(!seq.run(NistTest::Runs).passes());
        assert!(!seq.run(NistTest::Fft).passes());
    }

    #[test]
    fn prng_output_passes_all_tests() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let mut seq = BitSequence::new();
        for _ in 0..64 {
            seq.push_bits(rng.next_u64() as u128, 64);
        }
        for out in seq.run_all() {
            assert!(
                out.passes(),
                "{} failed on PRNG output with p = {}",
                out.test.name(),
                out.p_value
            );
        }
    }

    #[test]
    fn structured_iid_bits_fail_frequency() {
        // Low-byte scanning: targets ::1 .. ::200 — IIDs almost all zero.
        let mut seq = BitSequence::new();
        for i in 1u128..=200 {
            seq.push_bits(i, 64);
        }
        assert!(!seq.run(NistTest::Frequency).passes());
        assert!(!seq.run(NistTest::CusumForward).passes());
    }

    #[test]
    fn random_iid_bits_pass_frequency() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut seq = BitSequence::new();
        for _ in 0..200 {
            seq.push_bits(rng.next_u64() as u128, 64);
        }
        assert!(seq.run(NistTest::Frequency).passes());
    }

    #[test]
    fn empty_sequence_fails_gracefully() {
        let seq = BitSequence::new();
        for out in seq.run_all() {
            assert!(!out.passes());
            assert!(out.p_value.is_finite());
        }
    }

    #[test]
    fn push_bits_is_msb_first() {
        let mut seq = BitSequence::new();
        seq.push_bits(0b101, 3);
        assert_eq!(seq.to_bools(), vec![true, false, true]);
        assert_eq!(seq.len(), 3);
        assert!(seq.bit(0) && !seq.bit(1) && seq.bit(2));
        assert_eq!(seq.words(), &[0b101u64 << 61]);
    }

    #[test]
    fn push_bits_straddles_words() {
        let mut seq = BitSequence::new();
        seq.push_bits(0, 60);
        seq.push_bits(0xff, 8); // 4 bits in word 0, 4 in word 1
        assert_eq!(seq.len(), 68);
        assert_eq!(seq.words(), &[0xf, 0xf << 60]);
        let mut bools = vec![false; 60];
        bools.extend([true; 8]);
        assert_eq!(seq.to_bools(), bools);
    }

    #[test]
    fn fft_identity_check() {
        // DFT of an impulse is flat with magnitude 1.
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft_in_place(&mut re, &mut im);
        for k in 0..8 {
            let mag = (re[k] * re[k] + im[k] * im[k]).sqrt();
            assert!((mag - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let mut re = vec![1.0; 16];
        let mut im = vec![0.0; 16];
        fft_in_place(&mut re, &mut im);
        assert!((re[0] - 16.0).abs() < 1e-9);
        for k in 1..16 {
            assert!(re[k].abs() < 1e-9 && im[k].abs() < 1e-9);
        }
    }
}
