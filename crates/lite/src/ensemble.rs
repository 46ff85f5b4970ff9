//! The fused int8 multi-member inference backend.
//!
//! [`Int8Ensemble`] compiles `m` same-topology critics into one packed
//! int8 artifact and scores any sampled subset of them through **one
//! fused i8 GEMM per layer** instead of `k` separate model walks:
//!
//! - **per-channel symmetric weight quantization** — each output channel
//!   of every conv kernel / dense matrix gets its own scale
//!   ([`crate::quant::PerChannelQuantized`]);
//! - **range-guarded activation scales** — per member and per layer, a
//!   floor scale is calibrated from representative windows pushed through
//!   the dequantized float reference; at runtime each window whose
//!   activations exceed the calibrated range widens its own scale
//!   (`max(calibrated, window_max/127)`) instead of clipping, so
//!   out-of-distribution inputs — the attack windows the detector
//!   exists for — keep their score ranking. A window's scale depends
//!   only on that window, so scores are batch-independent;
//! - **packed multi-member weights** — every member's weights are packed
//!   once at compile time into the [`vehigan_tensor::gemm::PackedI8`]
//!   strip layout, so inference never repacks (the f32 path packs `B` on
//!   every call);
//! - **fused layer sweep** — layer 1 quantizes the shared window batch
//!   once and runs a single [`vehigan_tensor::gemm::gemm_i8_fused`] call
//!   over all deployed members' packed weights; deeper layers quantize
//!   each member's activations and sweep them through the same fused
//!   call.
//!
//! # Determinism
//!
//! The i8×i8→i32 accumulation is exact integer arithmetic, bitwise
//! identical between the portable and AVX2 kernels; the dequantize /
//! bias / activation / requantize stages are plain scalar f32 code shared
//! by every ISA. The whole int8 scoring pipeline is therefore **bitwise
//! reproducible across machines** — stronger than the f32 path, whose
//! AVX2 FMA kernels are only bit-stable per machine.

use crate::critic::CompileError;
use crate::quant::{activation_scale, quantize_activations, PerChannelQuantized};
use vehigan_tensor::gemm::{gemm, gemm_i8_fused, PackedI8};
use vehigan_tensor::serialize::ModelSnapshot;

/// One member's quantized parameters for one fused op.
struct OpMember {
    /// Packed int8 weights `[kk, cout]` / `[in, out]`.
    pack: PackedI8,
    /// Per-output-channel weight scales.
    w_scales: Vec<f32>,
    /// Float bias (never quantized — it adds once per output, not per
    /// `k`-step, so f32 costs nothing and loses nothing).
    bias: Vec<f32>,
    /// Fused LeakyReLU slope, if the next source layer was one.
    alpha: Option<f32>,
    /// Calibrated floor scale for this op's *input* activations (the
    /// runtime range guard may widen it per window, never narrow it).
    in_scale: f32,
    /// Dequantized weights, kept only between parsing and calibration.
    deq: Vec<f32>,
}

/// One fused op shared by all members (topology is identical; only the
/// per-member parameters differ).
enum FusedOp {
    /// Same-padding conv `[h, w, cin] → [h, w, cout]`.
    Conv {
        h: usize,
        w: usize,
        cin: usize,
        cout: usize,
        kh: usize,
        kw: usize,
        pad_top: usize,
        pad_left: usize,
        members: Vec<OpMember>,
    },
    /// Dense `in → out` (weights stay `[in, out]` — exactly the GEMM
    /// orientation, no transpose needed).
    Dense {
        in_dim: usize,
        out_dim: usize,
        members: Vec<OpMember>,
    },
}

impl FusedOp {
    fn members(&self) -> &[OpMember] {
        match self {
            FusedOp::Conv { members, .. } | FusedOp::Dense { members, .. } => members,
        }
    }

    fn members_mut(&mut self) -> &mut Vec<OpMember> {
        match self {
            FusedOp::Conv { members, .. } | FusedOp::Dense { members, .. } => members,
        }
    }

    /// Output length per input snapshot.
    fn out_len(&self) -> usize {
        match self {
            FusedOp::Conv { h, w, cout, .. } => h * w * cout,
            FusedOp::Dense { out_dim, .. } => *out_dim,
        }
    }

    /// Input length per input snapshot.
    fn in_len(&self) -> usize {
        match self {
            FusedOp::Conv { h, w, cin, .. } => h * w * cin,
            FusedOp::Dense { in_dim, .. } => *in_dim,
        }
    }

    /// GEMM shared dimension.
    fn kk(&self) -> usize {
        match self {
            FusedOp::Conv { kh, kw, cin, .. } => kh * kw * cin,
            FusedOp::Dense { in_dim, .. } => *in_dim,
        }
    }

    /// GEMM row count for a batch of `n` snapshots.
    fn gemm_rows(&self, n: usize) -> usize {
        match self {
            FusedOp::Conv { h, w, .. } => n * h * w,
            FusedOp::Dense { .. } => n,
        }
    }

    /// Structural fingerprint for topology equality across members.
    fn signature(&self) -> (usize, usize, usize, usize, usize, usize) {
        match self {
            FusedOp::Conv {
                h,
                w,
                cin,
                cout,
                kh,
                kw,
                ..
            } => (*h, *w, *cin, *cout, *kh, *kw),
            FusedOp::Dense {
                in_dim, out_dim, ..
            } => (0, 0, *in_dim, *out_dim, 0, 0),
        }
    }
}

/// Gathers a same-padding conv input into im2col rows.
///
/// Row `(img·h + oy)·w + ox` holds the `[ky][kx][ic]` patch around output
/// pixel `(oy, ox)`, matching the `[ky·kw·ic, oc]` weight layout.
/// Out-of-bounds taps stay `Default` (0 — exact for symmetric int8).
#[allow(clippy::too_many_arguments)]
fn im2col<T: Copy + Default>(
    src: &[T],
    n: usize,
    h: usize,
    w: usize,
    cin: usize,
    kh: usize,
    kw: usize,
    pad_top: usize,
    pad_left: usize,
    dst: &mut [T],
) {
    let kk = kh * kw * cin;
    debug_assert_eq!(src.len(), n * h * w * cin);
    debug_assert_eq!(dst.len(), n * h * w * kk);
    for img in 0..n {
        let src_img = &src[img * h * w * cin..(img + 1) * h * w * cin];
        for oy in 0..h {
            let ky_lo = pad_top.saturating_sub(oy);
            let ky_hi = kh.min(h + pad_top - oy);
            for ox in 0..w {
                let kx_lo = pad_left.saturating_sub(ox);
                let kx_hi = kw.min(w + pad_left - ox);
                let row = &mut dst[((img * h + oy) * w + ox) * kk..][..kk];
                // Zero only the clipped taps (a full-dst memset would
                // rewrite the whole gather buffer just to feed the edge
                // pixels); interior pixels skip this entirely.
                if ky_lo > 0 || ky_hi < kh || kx_lo > 0 || kx_hi < kw {
                    for v in row.iter_mut() {
                        *v = T::default();
                    }
                }
                // The in-range kx taps are contiguous in both src
                // (consecutive x) and dst (consecutive kx), so the whole
                // horizontal extent moves as one copy per ky.
                let span = (kx_hi - kx_lo) * cin;
                for ky in ky_lo..ky_hi {
                    let iy = oy + ky - pad_top;
                    let ix = ox + kx_lo - pad_left;
                    let src_off = (iy * w + ix) * cin;
                    let dst_off = (ky * kw + kx_lo) * cin;
                    row[dst_off..dst_off + span].copy_from_slice(&src_img[src_off..src_off + span]);
                }
            }
        }
    }
}

/// Dequantizes one window of GEMM accumulators:
/// `dst[r·cout + j] = acc[r·cout + j] · mult[j] + bias[j]`, optionally
/// through select-form LeakyReLU (`v > 0 ? v : α·v`).
///
/// Dispatches to an AVX-512 body that mirrors the scalar ops lane for
/// lane (i32→f32 convert, multiply, add, compare-blend — all with the
/// same IEEE rounding), so both paths are **bitwise identical** and
/// `VEHIGAN_FORCE_PORTABLE` stays a pure performance switch.
fn dequant_window(acc: &[i32], mult: &[f32], bias: &[f32], alpha: Option<f32>, dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if vehigan_tensor::gemm::avx512_available() {
        // SAFETY: guarded by cached runtime detection of avx512f.
        unsafe { dequant_window_avx512(acc, mult, bias, alpha, dst) };
        return;
    }
    dequant_window_portable(acc, mult, bias, alpha, dst);
}

/// Portable scalar body of [`dequant_window`].
fn dequant_window_portable(
    acc: &[i32],
    mult: &[f32],
    bias: &[f32],
    alpha: Option<f32>,
    dst: &mut [f32],
) {
    let cout = mult.len();
    match alpha {
        Some(alpha) => {
            for (row_acc, row_dst) in acc.chunks_exact(cout).zip(dst.chunks_exact_mut(cout)) {
                for ((d, &a), (&mu, &b)) in
                    row_dst.iter_mut().zip(row_acc).zip(mult.iter().zip(bias))
                {
                    let v = a as f32 * mu + b;
                    // Select-form LeakyReLU — a single blend per lane;
                    // the max+min form costs two maxnum NaN-checked ops.
                    *d = if v > 0.0 { v } else { alpha * v };
                }
            }
        }
        None => {
            for (row_acc, row_dst) in acc.chunks_exact(cout).zip(dst.chunks_exact_mut(cout)) {
                for ((d, &a), (&mu, &b)) in
                    row_dst.iter_mut().zip(row_acc).zip(mult.iter().zip(bias))
                {
                    *d = a as f32 * mu + b;
                }
            }
        }
    }
}

/// AVX-512 body of [`dequant_window`]: masked 16-lane chunks over each
/// `cout`-channel row. Every lane performs exactly the scalar sequence
/// (cvt, mul, add, ordered-greater blend), so the result is bitwise
/// identical to [`dequant_window_portable`] — including ±0 handling in
/// the LeakyReLU blend (`-0.0 > 0.0` is false in both forms).
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dequant_window_avx512(
    acc: &[i32],
    mult: &[f32],
    bias: &[f32],
    alpha: Option<f32>,
    dst: &mut [f32],
) {
    use std::arch::x86_64::*;
    let cout = mult.len();
    let zero = _mm512_setzero_ps();
    for (row_acc, row_dst) in acc.chunks_exact(cout).zip(dst.chunks_exact_mut(cout)) {
        let mut j = 0;
        while j < cout {
            let width = (cout - j).min(16);
            let mask: __mmask16 = if width == 16 {
                0xffff
            } else {
                (1u16 << width) - 1
            };
            let av = _mm512_maskz_loadu_epi32(mask, row_acc.as_ptr().add(j));
            let mv = _mm512_maskz_loadu_ps(mask, mult.as_ptr().add(j));
            let bv = _mm512_maskz_loadu_ps(mask, bias.as_ptr().add(j));
            // Separate mul + add (not FMA): the scalar body rounds twice.
            let v = _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(av), mv), bv);
            let out = match alpha {
                Some(alpha) => {
                    let leak = _mm512_mul_ps(v, _mm512_set1_ps(alpha));
                    let pos = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, zero);
                    _mm512_mask_mov_ps(leak, pos, v)
                }
                None => v,
            };
            _mm512_mask_storeu_ps(row_dst.as_mut_ptr().add(j), mask, out);
            j += 16;
        }
    }
}

/// Caller-owned activation scratch for [`Int8Ensemble`] scoring.
///
/// The compiled ensemble is immutable (`&self` scoring, `Sync`); every
/// buffer a forward pass writes lives here instead, so concurrent callers
/// each bring their own. Buffers grow to the largest batch and topology
/// they have served and are reused afterwards — steady state allocates
/// nothing. One scratch may serve any number of ensembles in turn.
#[derive(Default)]
pub struct Int8Scratch {
    /// Quantized activations, member-major.
    q: Vec<i8>,
    /// im2col gather, member-major.
    col: Vec<i8>,
    /// i32 GEMM accumulators, member-major.
    acc: Vec<i32>,
    /// f32 activations ping-pong, member-major.
    act_a: Vec<f32>,
    act_b: Vec<f32>,
    /// Per-(member, window) effective activation scales for the current op.
    eff: Vec<f32>,
    /// Per-channel dequantization multipliers for the current window.
    mult: Vec<f32>,
}

fn grown<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// A compiled fused int8 multi-member ensemble scorer.
///
/// Immutable once compiled: scoring takes `&self` plus a caller-owned
/// [`Int8Scratch`], so one ensemble is shared by any number of threads.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{Sequential, Init, init::seeded_rng};
/// use vehigan_tensor::layers::{Conv2D, Padding, Activation, Flatten, Dense};
/// use vehigan_lite::{Int8Ensemble, Int8Scratch};
///
/// let mut members = Vec::new();
/// for seed in 0..3u64 {
///     let mut rng = seeded_rng(seed);
///     let mut critic = Sequential::new();
///     critic.push(Conv2D::new(1, 8, (2, 2), Padding::Same, Init::HeUniform, &mut rng));
///     critic.push(Activation::leaky_relu(0.2));
///     critic.push(Flatten::new());
///     critic.push(Dense::new(10 * 12 * 8, 1, Init::XavierUniform, &mut rng));
///     members.push(critic.save());
/// }
/// let snaps: Vec<&_> = members.iter().collect();
/// let calibration = vec![0.1f32; 4 * 120]; // 4 representative windows
/// let fused = Int8Ensemble::compile(&snaps, (10, 12, 1), &calibration)?;
/// let mut scratch = Int8Scratch::default();
/// let window = vec![0.0f32; 120];
/// let mut scores = vec![0.0f32; 3];
/// let mut per_member: Vec<&mut [f32]> = scores.chunks_mut(1).collect();
/// fused.score_subset_into(&mut scratch, &[0, 1, 2], &window, 1, &mut per_member);
/// assert!(scores.iter().all(|s| s.is_finite()));
/// # Ok::<(), vehigan_lite::CompileError>(())
/// ```
pub struct Int8Ensemble {
    ops: Vec<FusedOp>,
    members: usize,
    input_len: usize,
}

impl std::fmt::Debug for Int8Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Int8Ensemble({} members, {} fused ops, input {} floats, {} packed weight bytes)",
            self.members,
            self.ops.len(),
            self.input_len,
            self.weight_bytes(),
        )
    }
}

/// Parses one member snapshot into per-op quantized parameters, checking
/// the same topology constraints as `LiteCritic`.
fn parse_member(
    snap: &ModelSnapshot,
    input_shape: (usize, usize, usize),
) -> Result<Vec<FusedOp>, CompileError> {
    let (h, w, mut c) = input_shape;
    let mut flat = h * w * c;
    let mut flattened = false;
    let mut ops: Vec<FusedOp> = Vec::new();
    let mut i = 0;
    while i < snap.layers.len() {
        let layer = &snap.layers[i];
        let fused_next = snap
            .layers
            .get(i + 1)
            .filter(|l| l.kind == "LeakyReLU")
            .map(|l| l.f32_attr("alpha"))
            .transpose()?;
        match layer.kind.as_str() {
            "Conv2D" => {
                let cin = layer.usize_attr("cin")?;
                let cout = layer.usize_attr("cout")?;
                let kh = layer.usize_attr("kh")?;
                let kw = layer.usize_attr("kw")?;
                let padding = layer.usize_attr("padding")?;
                if padding != 0 {
                    return Err(CompileError::UnsupportedLayer(
                        "Conv2D(valid) — int8 critics use same padding".into(),
                    ));
                }
                if cin != c {
                    return Err(CompileError::NotACritic("conv channel mismatch"));
                }
                let raw = layer.tensor("w")?.as_slice();
                let q = PerChannelQuantized::quantize(kh * kw * cin, cout, raw)?;
                let deq = q.dequantize();
                let member = OpMember {
                    pack: PackedI8::pack(kh * kw * cin, cout, &q.values),
                    w_scales: q.scales,
                    bias: layer.tensor("b")?.as_slice().to_vec(),
                    alpha: fused_next,
                    in_scale: 1.0,
                    deq,
                };
                if fused_next.is_some() {
                    i += 1;
                }
                ops.push(FusedOp::Conv {
                    h,
                    w,
                    cin,
                    cout,
                    kh,
                    kw,
                    pad_top: (kh - 1) / 2,
                    pad_left: (kw - 1) / 2,
                    members: vec![member],
                });
                c = cout;
                flat = h * w * c;
            }
            "Flatten" => {
                flattened = true;
            }
            "Dense" => {
                if !flattened && (h != 1 || w != 1) {
                    return Err(CompileError::NotACritic("dense before flatten"));
                }
                let in_dim = layer.usize_attr("in_dim")?;
                let out_dim = layer.usize_attr("out_dim")?;
                if in_dim != flat {
                    return Err(CompileError::NotACritic("dense input size mismatch"));
                }
                let raw = layer.tensor("w")?.as_slice();
                let q = PerChannelQuantized::quantize(in_dim, out_dim, raw)?;
                let deq = q.dequantize();
                let member = OpMember {
                    pack: PackedI8::pack(in_dim, out_dim, &q.values),
                    w_scales: q.scales,
                    bias: layer.tensor("b")?.as_slice().to_vec(),
                    alpha: fused_next,
                    in_scale: 1.0,
                    deq,
                };
                if fused_next.is_some() {
                    i += 1;
                }
                ops.push(FusedOp::Dense {
                    in_dim,
                    out_dim,
                    members: vec![member],
                });
                flat = out_dim;
                c = out_dim;
                flattened = true;
            }
            other => return Err(CompileError::UnsupportedLayer(other.to_string())),
        }
        i += 1;
    }
    if flat != 1 {
        return Err(CompileError::NotACritic("output is not a scalar"));
    }
    Ok(ops)
}

impl Int8Ensemble {
    /// Compiles same-topology critic snapshots into the fused int8
    /// representation, calibrating activation scales on `calibration`
    /// (flat `n × h·w·c` representative windows, at least one).
    ///
    /// # Errors
    ///
    /// Everything [`crate::LiteCritic::compile`] rejects, plus
    /// [`CompileError::NotACritic`] when members disagree on topology and
    /// [`CompileError::Quant`] when weights or calibration activations
    /// are non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `snaps` or `calibration` is empty, or `calibration` is
    /// not a whole number of windows.
    pub fn compile(
        snaps: &[&ModelSnapshot],
        input_shape: (usize, usize, usize),
        calibration: &[f32],
    ) -> Result<Self, CompileError> {
        assert!(!snaps.is_empty(), "need at least one member");
        let input_len = input_shape.0 * input_shape.1 * input_shape.2;
        assert!(
            !calibration.is_empty() && calibration.len().is_multiple_of(input_len),
            "calibration must be a non-empty whole number of windows"
        );

        // Parse every member and merge into the fused per-op layout.
        let mut ops = parse_member(snaps[0], input_shape)?;
        for snap in &snaps[1..] {
            let member_ops = parse_member(snap, input_shape)?;
            if member_ops.len() != ops.len()
                || member_ops
                    .iter()
                    .zip(&ops)
                    .any(|(a, b)| a.signature() != b.signature())
            {
                return Err(CompileError::NotACritic(
                    "members disagree on topology — fuse per topology group",
                ));
            }
            for (fused, mut single) in ops.iter_mut().zip(member_ops) {
                fused.members_mut().append(single.members_mut());
            }
        }

        let mut this = Int8Ensemble {
            ops,
            members: snaps.len(),
            input_len,
        };
        this.calibrate(calibration)?;
        // Calibration done — drop the dequantized float copies.
        for op in &mut this.ops {
            for m in op.members_mut() {
                m.deq = Vec::new();
                m.deq.shrink_to_fit();
            }
        }
        Ok(this)
    }

    /// Runs the dequantized float reference over the calibration windows,
    /// recording each member's per-layer input activation *floor* scale
    /// (the runtime range guard widens it for out-of-range windows).
    fn calibrate(&mut self, calibration: &[f32]) -> Result<(), CompileError> {
        let n = calibration.len() / self.input_len;
        for g in 0..self.members {
            let mut act = calibration.to_vec();
            for oi in 0..self.ops.len() {
                let scale = activation_scale(&act)?;
                let op = &self.ops[oi];
                let rows = op.gemm_rows(n);
                let kk = op.kk();
                let m = &op.members()[g];
                let mut out = vec![0.0f32; rows * m.bias.len()];
                match op {
                    FusedOp::Conv {
                        h,
                        w,
                        cin,
                        kh,
                        kw,
                        pad_top,
                        pad_left,
                        ..
                    } => {
                        let mut col = vec![0.0f32; rows * kk];
                        im2col(
                            &act, n, *h, *w, *cin, *kh, *kw, *pad_top, *pad_left, &mut col,
                        );
                        gemm(rows, kk, m.bias.len(), &col, &m.deq, &mut out);
                    }
                    FusedOp::Dense { in_dim, .. } => {
                        gemm(rows, *in_dim, m.bias.len(), &act, &m.deq, &mut out);
                    }
                }
                let cout = m.bias.len();
                for row in out.chunks_exact_mut(cout) {
                    for (v, &b) in row.iter_mut().zip(&m.bias) {
                        *v += b;
                        if let Some(alpha) = m.alpha {
                            if *v < 0.0 {
                                *v *= alpha;
                            }
                        }
                    }
                }
                self.ops[oi].members_mut()[g].in_scale = scale;
                act = out;
            }
        }
        Ok(())
    }

    /// Number of compiled members.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Number of fused ops (layers after activation fusion).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Compiled input length per snapshot.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Total packed int8 weight bytes across all members (the deployable
    /// artifact size).
    pub fn weight_bytes(&self) -> usize {
        self.ops
            .iter()
            .flat_map(|op| op.members().iter().map(|m| m.pack.packed_bytes()))
            .sum()
    }

    /// Raw critic outputs `D(x)` for a batch through a member subset.
    ///
    /// `windows` holds `n` flat snapshots; `out` holds one slice of `n`
    /// per subset member: `out[s][i]` is subset member `s`'s output on
    /// snapshot `i`. Each layer is one fused GEMM over every subset
    /// member's packed weights; every intermediate buffer lives in
    /// `scratch`.
    ///
    /// Rows are independent: a snapshot's output depends only on that
    /// snapshot (its activation scales are per window and the integer
    /// GEMM is exact), so scoring a batch in row chunks reproduces the
    /// whole-batch result bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or an out-of-range member index.
    pub fn infer_subset_into(
        &self,
        scratch: &mut Int8Scratch,
        subset: &[usize],
        windows: &[f32],
        n: usize,
        out: &mut [&mut [f32]],
    ) {
        assert_eq!(windows.len(), n * self.input_len, "windows length mismatch");
        assert_eq!(out.len(), subset.len(), "one output slice per member");
        assert!(out.iter().all(|o| o.len() == n), "output length mismatch");
        for &g in subset {
            assert!(g < self.members, "member {g} out of range");
        }
        if subset.is_empty() || n == 0 {
            return;
        }
        let gsel = subset.len();

        // Widest activation slab any layer needs, per member.
        let max_len = self
            .ops
            .iter()
            .map(|op| (op.in_len().max(op.out_len())) * n)
            .max()
            .expect("at least one op");
        let act_cur = grown(&mut scratch.act_a, gsel * max_len);
        // Seed every member's slab with the shared input.
        for s in 0..gsel {
            act_cur[s * max_len..s * max_len + windows.len()].copy_from_slice(windows);
        }
        let act_nxt = grown(&mut scratch.act_b, gsel * max_len);

        let (mut cur, mut nxt) = (act_cur, act_nxt);
        for (oi, op) in self.ops.iter().enumerate() {
            let rows = op.gemm_rows(n);
            let kk = op.kk();
            let in_per = op.in_len();
            let in_len = in_per * n;
            let out_per = op.out_len() * n;

            // Per-(member, window) effective scales: the calibrated scale
            // is the floor, expanded when a window's own activations
            // exceed the calibrated range — out-of-distribution inputs
            // (attacks!) widen their step instead of clipping. A window's
            // scale depends only on that window and the member, so scores
            // are independent of what else is in the batch.
            let eff = grown(&mut scratch.eff, gsel * n);
            for (s, &g) in subset.iter().enumerate() {
                let floor = op.members()[g].in_scale;
                for i in 0..n {
                    let win = &cur[s * max_len + i * in_per..s * max_len + (i + 1) * in_per];
                    // Eight parallel max lanes: a single fold is a serial
                    // dependency chain the compiler can't vectorize. Max
                    // is order-independent, so the result is bit-exact.
                    let (chunks, tail) = win.as_chunks::<16>();
                    let mut lanes = [0.0f32; 16];
                    for ch in chunks {
                        for (l, &v) in lanes.iter_mut().zip(ch) {
                            // `if a > l` instead of `f32::max`: the plain
                            // ordered compare + select vectorizes to
                            // vmaxps; maxnum's NaN bookkeeping does not.
                            // Identical result: NaN compares false, so
                            // NaN lanes are skipped exactly like maxnum.
                            let a = v.abs();
                            if a > *l {
                                *l = a;
                            }
                        }
                    }
                    let mut max_abs = 0.0f32;
                    for &v in tail {
                        let a = v.abs();
                        if a > max_abs {
                            max_abs = a;
                        }
                    }
                    for &l in &lanes {
                        if l > max_abs {
                            max_abs = l;
                        }
                    }
                    eff[s * n + i] = floor.max(max_abs / 127.0);
                }
            }

            // Quantize + gather activations, member-major, per window.
            let col = match op {
                FusedOp::Conv {
                    h,
                    w,
                    cin,
                    kh,
                    kw,
                    pad_top,
                    pad_left,
                    ..
                } => {
                    let col = grown(&mut scratch.col, gsel * rows * kk);
                    if oi == 0 {
                        // Shared input: every member sees the same windows
                        // and the same layer-0 scale (identical calibrated
                        // floor, identical range guard), so one quantize +
                        // one gather feed the whole fused GEMM.
                        let q = grown(&mut scratch.q, in_len);
                        for i in 0..n {
                            quantize_activations(
                                &cur[i * in_per..(i + 1) * in_per],
                                eff[i],
                                &mut q[i * in_per..(i + 1) * in_per],
                            );
                        }
                        im2col(
                            &q[..in_len],
                            n,
                            *h,
                            *w,
                            *cin,
                            *kh,
                            *kw,
                            *pad_top,
                            *pad_left,
                            &mut col[..rows * kk],
                        );
                        &col[..rows * kk]
                    } else {
                        let q = grown(&mut scratch.q, gsel * in_len);
                        for s in 0..gsel {
                            for i in 0..n {
                                quantize_activations(
                                    &cur[s * max_len + i * in_per..s * max_len + (i + 1) * in_per],
                                    eff[s * n + i],
                                    &mut q[s * in_len + i * in_per..s * in_len + (i + 1) * in_per],
                                );
                            }
                        }
                        for s in 0..gsel {
                            im2col(
                                &q[s * in_len..(s + 1) * in_len],
                                n,
                                *h,
                                *w,
                                *cin,
                                *kh,
                                *kw,
                                *pad_top,
                                *pad_left,
                                &mut col[s * rows * kk..(s + 1) * rows * kk],
                            );
                        }
                        &col[..gsel * rows * kk]
                    }
                }
                FusedOp::Dense { .. } => {
                    let q = grown(&mut scratch.q, gsel * in_len);
                    for s in 0..gsel {
                        for i in 0..n {
                            quantize_activations(
                                &cur[s * max_len + i * in_per..s * max_len + (i + 1) * in_per],
                                eff[s * n + i],
                                &mut q[s * in_len + i * in_per..s * in_len + (i + 1) * in_per],
                            );
                        }
                    }
                    &scratch.q[..gsel * in_len]
                }
            };

            // One fused GEMM over every deployed member's packed weights.
            let packs: Vec<&PackedI8> = subset.iter().map(|&g| &op.members()[g].pack).collect();
            let acc = grown(&mut scratch.acc, gsel * out_per);
            for v in acc.iter_mut() {
                *v = 0;
            }
            gemm_i8_fused(rows, col, &packs, acc);

            // Dequantize + bias + fused activation, per member, with each
            // window's effective input scale. The per-channel multipliers
            // are hoisted per window; `dequant_window` dispatches to an
            // AVX-512 mirror that is bitwise identical to the portable loop.
            let per_win = rows / n;
            let mult = grown(&mut scratch.mult, op.out_len() / per_win);
            for (s, &g) in subset.iter().enumerate() {
                let m = &op.members()[g];
                let cout = m.bias.len();
                let mult = &mut mult[..cout];
                let acc_m = &acc[s * out_per..(s + 1) * out_per];
                let dst = &mut nxt[s * max_len..s * max_len + out_per];
                for i in 0..n {
                    let es = eff[s * n + i];
                    for (mu, &ws) in mult.iter_mut().zip(&m.w_scales) {
                        *mu = es * ws;
                    }
                    let a_win = &acc_m[i * per_win * cout..(i + 1) * per_win * cout];
                    let d_win = &mut dst[i * per_win * cout..(i + 1) * per_win * cout];
                    dequant_window(a_win, mult, &m.bias, m.alpha, d_win);
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
        }

        // Final op produced one scalar per snapshot per member.
        for (s, dst) in out.iter_mut().enumerate() {
            dst.copy_from_slice(&cur[s * max_len..s * max_len + n]);
        }
    }

    /// Anomaly scores `s(x) = −D(x)` for a batch through a member subset
    /// (one output slice per member, like
    /// [`Int8Ensemble::infer_subset_into`]).
    ///
    /// # Panics
    ///
    /// Same as [`Int8Ensemble::infer_subset_into`].
    pub fn score_subset_into(
        &self,
        scratch: &mut Int8Scratch,
        subset: &[usize],
        windows: &[f32],
        n: usize,
        out: &mut [&mut [f32]],
    ) {
        self.infer_subset_into(scratch, subset, windows, n, out);
        for v in out.iter_mut().flat_map(|o| o.iter_mut()) {
            *v = -*v;
        }
    }

    /// Convenience: anomaly scores for all members, member-major
    /// (`out[g·n + i]`), through a fresh scratch.
    pub fn score_all(&self, windows: &[f32], n: usize) -> Vec<f32> {
        let subset: Vec<usize> = (0..self.members).collect();
        let mut out = vec![0.0f32; self.members * n];
        if n > 0 {
            let mut outs: Vec<&mut [f32]> = out.chunks_mut(n).collect();
            self.score_subset_into(&mut Int8Scratch::default(), &subset, windows, n, &mut outs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_tensor::init::seeded_rng;
    use vehigan_tensor::layers::{Activation, Conv2D, Dense, Flatten, Padding};
    use vehigan_tensor::{Init, Sequential, Tensor};

    const H: usize = 10;
    const W: usize = 12;

    fn build_critic(depth: usize, seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        let mut m = Sequential::new();
        let mut cin = 1;
        for i in 0..depth - 1 {
            let cout = (8usize << i).min(32);
            m.push(Conv2D::new(
                cin,
                cout,
                (2, 2),
                Padding::Same,
                Init::HeUniform,
                &mut rng,
            ));
            m.push(Activation::leaky_relu(0.2));
            cin = cout;
        }
        m.push(Flatten::new());
        m.push(Dense::new(H * W * cin, 1, Init::XavierUniform, &mut rng));
        m
    }

    fn random_windows(n: usize, seed: u64) -> Vec<f32> {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        (0..n * H * W).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn compile_fused(
        depth: usize,
        members: usize,
        calibration: &[f32],
    ) -> (Int8Ensemble, Vec<Sequential>) {
        let floats: Vec<Sequential> = (0..members as u64)
            .map(|s| build_critic(depth, 100 + s))
            .collect();
        let snaps: Vec<_> = floats.iter().map(|m| m.save()).collect();
        let refs: Vec<&_> = snaps.iter().collect();
        let fused = Int8Ensemble::compile(&refs, (H, W, 1), calibration).unwrap();
        (fused, floats)
    }

    #[test]
    fn fused_scores_track_float_reference() {
        let calibration = random_windows(16, 7);
        let (fused, mut floats) = compile_fused(4, 3, &calibration);
        let n = 8;
        let windows = random_windows(n, 11);
        let scores = fused.score_all(&windows, n);
        for (g, float) in floats.iter_mut().enumerate() {
            let x = Tensor::from_vec(windows.clone(), &[n, H, W, 1]);
            let d = float.forward(&x);
            for i in 0..n {
                let want = -d.as_slice()[i];
                let got = scores[g * n + i];
                let tol = 0.05 * want.abs().max(1.0);
                assert!(
                    (want - got).abs() <= tol,
                    "member {g} snapshot {i}: int8 {got} vs f32 {want}"
                );
            }
        }
    }

    #[test]
    fn subset_scoring_is_bitwise_consistent_with_full_run() {
        let calibration = random_windows(8, 3);
        let (fused, _floats) = compile_fused(5, 4, &calibration);
        let n = 3;
        let windows = random_windows(n, 21);
        let all = fused.score_all(&windows, n);
        // Every subset, in any order, reproduces the full run bitwise.
        for subset in [&[2usize][..], &[3, 0], &[1, 3, 2]] {
            let mut out = vec![0.0f32; subset.len() * n];
            let mut outs: Vec<&mut [f32]> = out.chunks_mut(n).collect();
            fused.score_subset_into(&mut Int8Scratch::default(), subset, &windows, n, &mut outs);
            for (s, &g) in subset.iter().enumerate() {
                for i in 0..n {
                    assert_eq!(
                        out[s * n + i].to_bits(),
                        all[g * n + i].to_bits(),
                        "subset {subset:?} member {g} snapshot {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_runs_are_bitwise_deterministic() {
        let calibration = random_windows(8, 5);
        let (fused, _floats) = compile_fused(4, 2, &calibration);
        let windows = random_windows(4, 9);
        let a = fused.score_all(&windows, 4);
        let b = fused.score_all(&windows, 4);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let a = build_critic(4, 1).save();
        let b = build_critic(5, 2).save();
        let calibration = random_windows(4, 1);
        let err = Int8Ensemble::compile(&[&a, &b], (H, W, 1), &calibration).unwrap_err();
        assert!(matches!(err, CompileError::NotACritic(_)), "{err}");
    }

    #[test]
    fn batch_and_single_snapshot_agree() {
        let calibration = random_windows(8, 13);
        let (fused, _floats) = compile_fused(4, 2, &calibration);
        let n = 5;
        let windows = random_windows(n, 17);
        let batch = fused.score_all(&windows, n);
        for i in 0..n {
            let one = &windows[i * H * W..(i + 1) * H * W];
            let scores = fused.score_all(one, 1);
            for g in 0..2 {
                assert_eq!(
                    scores[g].to_bits(),
                    batch[g * n + i].to_bits(),
                    "member {g} snapshot {i}"
                );
            }
        }
    }

    #[test]
    fn one_scratch_serves_ensembles_of_any_topology_and_batch() {
        let calibration = random_windows(8, 19);
        let (deep, _) = compile_fused(5, 3, &calibration);
        let (shallow, _) = compile_fused(3, 2, &calibration);
        let windows = random_windows(6, 23);
        let mut scratch = Int8Scratch::default();
        // Interleave topologies and batch sizes through one scratch: stale
        // contents from a larger or deeper pass must never leak.
        for (fused, n) in [(&deep, 6), (&shallow, 2), (&deep, 1), (&shallow, 6)] {
            let windows = &windows[..n * H * W];
            let mut out = vec![0.0f32; fused.members() * n];
            let mut outs: Vec<&mut [f32]> = out.chunks_mut(n).collect();
            let subset: Vec<usize> = (0..fused.members()).collect();
            fused.score_subset_into(&mut scratch, &subset, windows, n, &mut outs);
            let fresh = fused.score_all(windows, n);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn debug_reports_artifact_size() {
        let calibration = random_windows(4, 2);
        let (fused, _floats) = compile_fused(4, 2, &calibration);
        let text = format!("{fused:?}");
        assert!(text.contains("2 members"), "{text}");
        assert!(fused.weight_bytes() > 0);
    }
}
