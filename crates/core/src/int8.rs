//! Int8 ensemble scoring backend for [`VehiGan`].
//!
//! [`VehiGan::compile_int8`] snapshots every member's trained critic into
//! [`vehigan_lite::Int8Ensemble`] fused scorers — one per critic
//! *topology group*, since zoo members differ only in depth — and
//! [`VehiGan::score_with_members_int8`] then runs each deployed subset
//! through one fused i8 GEMM per layer instead of `k` separate float
//! model walks.
//!
//! The backend is a **sidecar**: the float members stay authoritative
//! (thresholds, gradients for the adversarial experiments, quarantine
//! state all live on [`VehiGan`]); the int8 artifact is a compiled view
//! of their weights at `compile_int8` time. Mutating a member's critic
//! afterwards (e.g. adaptive attack fine-tuning) leaves the backend
//! stale — recompile it.
//!
//! Degraded-tolerance matches the float path: a member whose int8 scores
//! come back non-finite is dropped from the reduction and recorded in
//! [`EnsembleScore::dropped`]; only when every deployed member fails does
//! scoring return [`EnsembleError::AllMembersFailed`].
//!
//! # Row-parallel scoring
//!
//! A batch's rows are independent (per-window activation scales, exact
//! integer GEMM), so [`VehiGan::score_with_members_int8`] splits each
//! batch into contiguous row chunks, one per worker, and every worker
//! runs every topology group on its chunk. Rows rather than members:
//! the deployed subset is a few members in uneven topology groups, while
//! a tile has a hundred-odd rows that split evenly. The compiled groups
//! are immutable and shared; each worker borrows its own
//! [`Int8Scratch`]. The non-finite drop decision and chaos poisoning
//! look at the stitched whole batch, so scores, `members` and `dropped`
//! are bitwise identical to scoring serially.

use crate::ensemble::{EnsembleError, EnsembleScore, VehiGan};
use parking_lot::Mutex;
use vehigan_lite::{Int8Ensemble, Int8Scratch};
use vehigan_tensor::Tensor;

/// Structural topology key of one critic: per-layer `(kind, usize_attrs)`,
/// weights excluded. Members with equal keys fuse into one scorer.
type TopologyKey = Vec<(String, Vec<(String, usize)>)>;

/// Fewest rows a worker is given: a batch below `2 ×` this is scored
/// serially on the calling thread, so single-snapshot scoring never
/// spawns a thread.
const MIN_ROWS_PER_WORKER: usize = 8;

/// Compiled int8 scorers for a [`VehiGan`]'s members, grouped by critic
/// topology.
pub struct Int8Backend {
    /// One fused scorer per topology group, compiled once and shared by
    /// every worker.
    groups: Vec<Int8Ensemble>,
    /// `member index → (group, local index within the group)`.
    member_map: Vec<(usize, usize)>,
    /// Flat snapshot length each scorer expects.
    input_len: usize,
    /// One activation scratch per worker (`available_parallelism` at
    /// compile time). Worker `w` of a call locks slot `w`, so the lock
    /// is uncontended unless two callers score at once.
    scratch: Vec<Mutex<Int8Scratch>>,
}

impl std::fmt::Debug for Int8Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Int8Backend({} members in {} topology groups, {} packed weight bytes)",
            self.member_map.len(),
            self.groups.len(),
            self.weight_bytes(),
        )
    }
}

impl Int8Backend {
    /// Number of compiled members.
    pub fn members(&self) -> usize {
        self.member_map.len()
    }

    /// Number of distinct critic topologies.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Total packed int8 weight bytes — the deployable artifact size,
    /// roughly 4× smaller than the float weights.
    pub fn weight_bytes(&self) -> usize {
        self.groups.iter().map(Int8Ensemble::weight_bytes).sum()
    }

    /// Scores `indices` on a flat batch of `n` rows split over up to
    /// `workers` threads, returning per-member score vectors in
    /// `indices` order (`None` marks a member whose scores came back
    /// non-finite on any row).
    fn member_scores(
        &self,
        indices: &[usize],
        windows: &[f32],
        n: usize,
        workers: usize,
    ) -> Vec<Option<Vec<f32>>> {
        let workers = workers.min(n / MIN_ROWS_PER_WORKER).max(1);
        let mut out: Vec<Vec<f32>> = vec![vec![0.0f32; n]; indices.len()];

        // Contiguous row chunks, the first `n % workers` one row longer.
        // Each chunk owns its rows of the input and of every member's
        // output vector, so workers write results straight into place.
        let mut chunks: Vec<(&[f32], Vec<&mut [f32]>)> = Vec::with_capacity(workers);
        let mut rest_in = windows;
        let mut rest_out: Vec<&mut [f32]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        for w in 0..workers {
            let rows = n / workers + usize::from(w < n % workers);
            let (chunk_in, tail_in) = rest_in.split_at(rows * self.input_len);
            rest_in = tail_in;
            let chunk_out = rest_out
                .iter_mut()
                .map(|member| {
                    let (mine, tail) = std::mem::take(member).split_at_mut(rows);
                    *member = tail;
                    mine
                })
                .collect();
            chunks.push((chunk_in, chunk_out));
        }

        let run = |w: usize, chunk_in: &[f32], chunk_out: Vec<&mut [f32]>| {
            let mut scratch = self.scratch[w % self.scratch.len()].lock();
            self.score_rows(&mut scratch, indices, chunk_in, chunk_out);
        };
        let run = &run;
        crossbeam::thread::scope(|scope| {
            let mut chunks = chunks.into_iter().enumerate();
            let (_, (first_in, first_out)) = chunks.next().expect("one chunk");
            let handles: Vec<_> = chunks
                .map(|(w, (chunk_in, chunk_out))| scope.spawn(move |_| run(w, chunk_in, chunk_out)))
                .collect();
            // The calling thread takes chunk 0 (the only one when serial).
            run(0, first_in, first_out);
            for h in handles {
                h.join().expect("int8 row worker join");
            }
        })
        .expect("int8 row scope");

        // The drop decision sees the whole batch, exactly as serially.
        out.into_iter()
            .map(|member| member.iter().all(|v| v.is_finite()).then_some(member))
            .collect()
    }

    /// Runs every topology group over one row chunk, writing member
    /// `indices[p]`'s scores into `out[p]`.
    fn score_rows(
        &self,
        scratch: &mut Int8Scratch,
        indices: &[usize],
        windows: &[f32],
        mut out: Vec<&mut [f32]>,
    ) {
        let rows = windows.len() / self.input_len;
        for (g, group) in self.groups.iter().enumerate() {
            // The group's members in `indices` order, so the reduction
            // order is identical to the float path.
            let mut locals = Vec::new();
            let mut dst: Vec<&mut [f32]> = Vec::new();
            for (&i, slot) in indices.iter().zip(out.iter_mut()) {
                let (mg, local) = self.member_map[i];
                if mg == g {
                    locals.push(local);
                    dst.push(slot);
                }
            }
            if !locals.is_empty() {
                group.score_subset_into(scratch, &locals, windows, rows, &mut dst);
            }
        }
    }
}

impl VehiGan {
    /// Compiles every member's critic into the fused int8 backend,
    /// calibrating activation scales on `calibration` (benign training
    /// windows `[n, w, f, 1]`; a few hundred are plenty).
    ///
    /// Members are grouped by critic topology (zoo members differ only in
    /// depth) and each group becomes one fused
    /// [`vehigan_lite::Int8Ensemble`].
    ///
    /// # Errors
    ///
    /// [`EnsembleError::Int8Compile`] when a critic uses layers the int8
    /// path does not support or its weights are non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty or not rank 4.
    pub fn compile_int8(&mut self, calibration: &Tensor) -> Result<(), EnsembleError> {
        let shape = calibration.shape();
        assert!(
            shape.len() == 4 && shape[0] > 0,
            "calibration must be a non-empty [n, w, f, c] batch, got {shape:?}"
        );
        let input_shape = (shape[1], shape[2], shape[3]);
        let input_len = shape[1] * shape[2] * shape[3];

        let snaps: Vec<_> = self
            .members()
            .iter()
            .map(|m| m.wgan.critic().save())
            .collect();

        // Group members by structural topology: layer kinds plus integer
        // hyperparameters (depth, channels, kernel) — weights excluded.
        let keys: Vec<TopologyKey> = snaps
            .iter()
            .map(|s| {
                s.layers
                    .iter()
                    .map(|l| (l.kind.clone(), l.usize_attrs.clone()))
                    .collect()
            })
            .collect();
        let mut group_keys: Vec<&TopologyKey> = Vec::new();
        let mut group_members: Vec<Vec<usize>> = Vec::new();
        let mut member_map = vec![(0usize, 0usize); snaps.len()];
        for (i, key) in keys.iter().enumerate() {
            let g = match group_keys.iter().position(|k| *k == key) {
                Some(g) => g,
                None => {
                    group_keys.push(key);
                    group_members.push(Vec::new());
                    group_keys.len() - 1
                }
            };
            member_map[i] = (g, group_members[g].len());
            group_members[g].push(i);
        }

        let mut groups = Vec::with_capacity(group_members.len());
        for members in &group_members {
            let refs: Vec<_> = members.iter().map(|&i| &snaps[i]).collect();
            let fused =
                Int8Ensemble::compile(&refs, input_shape, calibration.as_slice()).map_err(|e| {
                    EnsembleError::Int8Compile {
                        reason: e.to_string(),
                    }
                })?;
            groups.push(fused);
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.set_int8_backend(Int8Backend {
            groups,
            member_map,
            input_len,
            scratch: (0..workers).map(|_| Mutex::default()).collect(),
        });
        Ok(())
    }

    /// Scores snapshots through the int8 backend with an explicit member
    /// subset — the fused counterpart of [`VehiGan::score_with_members`],
    /// with identical subset validation, reduction order, and
    /// degraded-tolerance semantics.
    ///
    /// The batch's rows are split into contiguous chunks scored in
    /// parallel on crossbeam scoped threads, one per available core
    /// (batches under 16 rows, e.g. single-snapshot OBU scoring, stay on
    /// the calling thread). The result — scores, threshold, `members`
    /// and `dropped` — is bitwise identical to scoring serially: rows are
    /// independent, and a member whose scores are non-finite on any row
    /// is dropped for the whole batch. Safe to call from several threads
    /// at once.
    ///
    /// # Errors
    ///
    /// [`EnsembleError::Int8NotCompiled`] before [`VehiGan::compile_int8`];
    /// otherwise the same errors as [`VehiGan::score_with_members`].
    pub fn score_with_members_int8(
        &self,
        indices: &[usize],
        x: &Tensor,
    ) -> Result<EnsembleScore, EnsembleError> {
        let workers = self.int8_backend().map_or(1, |b| b.scratch.len());
        self.score_with_members_int8_split(indices, x, workers)
    }

    /// [`VehiGan::score_with_members_int8`] with an explicit worker
    /// count (tests drive the row split directly).
    fn score_with_members_int8_split(
        &self,
        indices: &[usize],
        x: &Tensor,
        workers: usize,
    ) -> Result<EnsembleScore, EnsembleError> {
        let backend = self.int8_backend().ok_or(EnsembleError::Int8NotCompiled)?;
        if indices.is_empty() {
            return Err(EnsembleError::EmptySubset);
        }
        for &i in indices {
            if i >= self.m() {
                return Err(EnsembleError::MemberOutOfBounds {
                    index: i,
                    m: self.m(),
                });
            }
        }
        let n = x.shape()[0];
        assert_eq!(
            x.as_slice().len(),
            n * backend.input_len,
            "batch shape {:?} does not match the compiled input length {}",
            x.shape(),
            backend.input_len
        );
        let mut per_member = backend.member_scores(indices, x.as_slice(), n, workers);
        // Chaos fault injection (see [`VehiGan::chaos_poison_member`]):
        // overwrite the poisoned member's scores with NaN and re-apply
        // the same finiteness filter `member_scores` uses, so the drop
        // machinery is exercised identically to a real poisoning.
        for (slot, &i) in per_member.iter_mut().zip(indices) {
            if self.member_poisoned(i) {
                if let Some(scores) = slot.as_mut() {
                    scores.fill(f32::NAN);
                }
                *slot = slot.take().filter(|s| s.iter().all(|v| v.is_finite()));
            }
        }
        self.reduce_member_scores(indices, &per_member, n)
    }

    /// Scores snapshots through the int8 backend with a fresh random
    /// subset of `k` healthy members — the fused counterpart of
    /// [`VehiGan::score_batch`].
    ///
    /// # Errors
    ///
    /// Same as [`VehiGan::sample_subset`] and
    /// [`VehiGan::score_with_members_int8`].
    pub fn score_batch_int8(&mut self, x: &Tensor) -> Result<EnsembleScore, EnsembleError> {
        let indices = self.sample_subset()?;
        self.score_with_members_int8(&indices, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WganConfig;
    use crate::ensemble::CriticMember;
    use crate::wgan::Wgan;
    use vehigan_tensor::init::{rand_uniform, seeded_rng};

    fn benign(n: usize, seed: u64) -> Tensor {
        let mut rng = seeded_rng(seed);
        let base = rand_uniform(&[n, 1], -0.2, 0.2, &mut rng);
        let mut data = Vec::with_capacity(n * 120);
        for i in 0..n {
            for j in 0..120 {
                data.push(base.as_slice()[i] + 0.05 * (j as f32 * 0.4).cos());
            }
        }
        Tensor::from_vec(data, &[n, 10, 12, 1])
    }

    fn member(seed: u64, layers: usize, train: &Tensor) -> CriticMember {
        let config = WganConfig {
            noise_dim: 8,
            layers,
            epochs: 2,
            batch_size: 32,
            n_critic: 1,
            seed,
            ..WganConfig::default()
        };
        let mut wgan = Wgan::new(config);
        wgan.train(train);
        CriticMember::calibrate(wgan, 0.9, train, 99.0).unwrap()
    }

    /// Mixed-depth ensemble (two topology groups) with the backend
    /// compiled, plus the benign training batch.
    fn compiled_ensemble() -> (VehiGan, Tensor) {
        let train = benign(96, 0);
        let members = vec![
            member(0, 3, &train),
            member(1, 4, &train),
            member(2, 3, &train),
        ];
        let mut v = VehiGan::new(members, 2, 7).unwrap();
        v.compile_int8(&train).unwrap();
        (v, train)
    }

    #[test]
    fn scoring_before_compile_is_a_typed_error() {
        let train = benign(96, 0);
        let v = VehiGan::new(vec![member(0, 3, &train)], 1, 7).unwrap();
        assert_eq!(
            v.score_with_members_int8(&[0], &train).unwrap_err(),
            EnsembleError::Int8NotCompiled
        );
    }

    #[test]
    fn members_group_by_topology() {
        let (v, _train) = compiled_ensemble();
        let backend = v.int8_backend().unwrap();
        assert_eq!(backend.members(), 3);
        assert_eq!(backend.groups(), 2, "depths 3/4 are two topology groups");
        assert!(backend.weight_bytes() > 0);
        let text = format!("{backend:?}");
        assert!(text.contains("2 topology groups"), "{text}");
    }

    #[test]
    fn int8_scores_track_the_float_path() {
        let (v, _train) = compiled_ensemble();
        let x = benign(24, 3);
        let all = [0usize, 1, 2];
        let f32_path = v.score_with_members(&all, &x).unwrap();
        let int8_path = v.score_with_members_int8(&all, &x).unwrap();
        assert_eq!(int8_path.members, f32_path.members);
        assert_eq!(int8_path.threshold, f32_path.threshold);
        assert!(int8_path.dropped.is_empty());
        // Same scale-invariant agreement bound as the lite crate: errors
        // small against the score spread of the batch.
        let lo = f32_path
            .scores
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        let hi = f32_path
            .scores
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        let tol = 0.05 * (hi - lo).max(1e-3);
        for (a, b) in int8_path.scores.iter().zip(&f32_path.scores) {
            assert!((a - b).abs() <= tol, "int8 {a} vs f32 {b} (tol {tol})");
        }
    }

    #[test]
    fn subset_scoring_spans_topology_groups() {
        let (v, _train) = compiled_ensemble();
        let x = benign(6, 5);
        // Members 1 (depth 4) and 2 (depth 3) live in different groups;
        // the reduction must still follow `indices` order.
        let mixed = v.score_with_members_int8(&[1, 2], &x).unwrap();
        assert_eq!(mixed.members, vec![1, 2]);
        let single = v.score_with_members_int8(&[2], &x).unwrap();
        let other = v.score_with_members_int8(&[1], &x).unwrap();
        for i in 0..6 {
            let mean = (single.scores[i] + other.scores[i]) / 2.0;
            assert!((mixed.scores[i] - mean).abs() < 1e-6);
        }
    }

    #[test]
    fn int8_scoring_is_bitwise_deterministic() {
        let (v, _train) = compiled_ensemble();
        let x = benign(8, 9);
        let a = v.score_with_members_int8(&[0, 1, 2], &x).unwrap();
        let b = v.score_with_members_int8(&[0, 1, 2], &x).unwrap();
        assert_eq!(
            a.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            b.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn score_batch_int8_samples_random_subsets() {
        let (mut v, _train) = compiled_ensemble();
        let x = benign(4, 11);
        let subsets: Vec<Vec<usize>> = (0..10)
            .map(|_| v.score_batch_int8(&x).unwrap().members)
            .collect();
        for s in &subsets {
            assert_eq!(s.len(), 2);
        }
        assert!(subsets.iter().any(|s| s != &subsets[0]));
    }

    /// Every bit of an ensemble result: scores, threshold, survivors,
    /// dropped members.
    fn bits(r: &EnsembleScore) -> (Vec<u32>, u32, Vec<usize>, Vec<usize>) {
        (
            r.scores.iter().map(|s| s.to_bits()).collect(),
            r.threshold.to_bits(),
            r.members.clone(),
            r.dropped.clone(),
        )
    }

    /// `n` windows mixing benign rows with out-of-range ones that widen
    /// the per-window activation scales.
    fn mixed_batch(n: usize) -> Tensor {
        let mut x = benign(n, 17);
        for (i, row) in x.as_mut_slice().chunks_mut(120).enumerate() {
            if i % 5 == 3 {
                for v in row.iter_mut() {
                    *v = *v * 40.0 + 3.0;
                }
            }
        }
        x
    }

    /// Batch sizes around every chunk boundary of 1–4 workers.
    const SPLIT_SIZES: [usize; 12] = [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128];

    /// Scores every split size with 1–4 workers and asserts each result
    /// is bit-for-bit the 1-worker one; returns the 1-worker results.
    fn assert_split_matches_serial(v: &VehiGan, subset: &[usize]) -> Vec<EnsembleScore> {
        let x = mixed_batch(128);
        SPLIT_SIZES
            .iter()
            .map(|&n| {
                let tile = Tensor::from_vec(x.as_slice()[..n * 120].to_vec(), &[n, 10, 12, 1]);
                let serial = v.score_with_members_int8_split(subset, &tile, 1).unwrap();
                for workers in 2..=4 {
                    let split = v
                        .score_with_members_int8_split(subset, &tile, workers)
                        .unwrap();
                    assert_eq!(
                        bits(&split),
                        bits(&serial),
                        "subset {subset:?}, n = {n}, {workers} workers"
                    );
                }
                serial
            })
            .collect()
    }

    #[test]
    fn row_split_is_bitwise_identical_to_serial() {
        let (v, _train) = compiled_ensemble();
        for subset in [&[0usize, 1, 2][..], &[1, 2], &[2], &[2, 0]] {
            for r in assert_split_matches_serial(&v, subset) {
                assert!(r.dropped.is_empty());
            }
        }
    }

    #[test]
    fn row_split_keeps_chaos_poisoning_per_tile() {
        let (v, _train) = compiled_ensemble();
        v.chaos_poison_member(1, true);
        for r in assert_split_matches_serial(&v, &[0, 1, 2]) {
            assert_eq!(r.members, vec![0, 2]);
            assert_eq!(r.dropped, vec![1]);
        }
        v.chaos_poison_member(1, false);
        for r in assert_split_matches_serial(&v, &[0, 1, 2]) {
            assert!(r.dropped.is_empty());
        }
    }

    #[test]
    fn member_non_finite_on_one_row_is_dropped_for_the_whole_tile() {
        let (mut v, train) = compiled_ensemble();
        // Blow up member 1's output layer so its scores stay finite on
        // ordinary rows but overflow on one extreme row.
        let x = mixed_batch(128);
        let benign_max = v
            .score_with_members_int8(&[1], &x)
            .unwrap()
            .scores
            .iter()
            .fold(0.0f32, |m, s| m.max(s.abs()));
        let gain = f32::MAX / (16.0 * benign_max.max(1.0));
        {
            let critic = v.members_mut()[1].wgan.critic_mut();
            let mut params = critic.params_mut();
            let dense_w = params.len() - 2;
            params[dense_w].value.scale_in_place(gain);
        }
        v.compile_int8(&train).unwrap();
        let mut data = x.as_slice().to_vec();
        let hot = 70; // beyond the first chunk of every split
        for val in &mut data[hot * 120..(hot + 1) * 120] {
            *val = *val * 1e4 + 1e4;
        }
        let hot_batch = Tensor::from_vec(data, &[128, 10, 12, 1]);
        let cold = v.score_with_members_int8_split(&[0, 1, 2], &x, 1).unwrap();
        assert!(
            cold.dropped.is_empty(),
            "member 1 is finite on ordinary rows"
        );
        let serial = v
            .score_with_members_int8_split(&[0, 1, 2], &hot_batch, 1)
            .unwrap();
        assert_eq!(
            serial.dropped,
            vec![1],
            "the hot row overflows member 1 only"
        );
        assert_eq!(serial.members, vec![0, 2]);
        for workers in 2..=4 {
            let split = v
                .score_with_members_int8_split(&[0, 1, 2], &hot_batch, workers)
                .unwrap();
            assert_eq!(bits(&split), bits(&serial), "{workers} workers");
        }
    }

    fn assert_sync<T: Sync>() {}

    #[test]
    fn concurrent_callers_share_one_backend_soundly() {
        assert_sync::<VehiGan>();
        assert_sync::<Int8Ensemble>();
        let (v, _train) = compiled_ensemble();
        let x = mixed_batch(128);
        let want = bits(&v.score_with_members_int8_split(&[0, 1, 2], &x, 1).unwrap());
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..8 {
                            let r = v.score_with_members_int8(&[0, 1, 2], &x).unwrap();
                            assert_eq!(bits(&r), want);
                        }
                    })
                })
                .collect();
            for c in callers {
                c.join().unwrap();
            }
        });
    }

    #[test]
    fn bad_subsets_are_typed_errors() {
        let (v, _train) = compiled_ensemble();
        let x = benign(2, 13);
        assert_eq!(
            v.score_with_members_int8(&[], &x).unwrap_err(),
            EnsembleError::EmptySubset
        );
        assert_eq!(
            v.score_with_members_int8(&[7], &x).unwrap_err(),
            EnsembleError::MemberOutOfBounds { index: 7, m: 3 }
        );
    }
}
