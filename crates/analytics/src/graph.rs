//! Graph-based community learning (§IV-D): "users running the same IoT
//! devices and similar automation applications could be considered as a
//! group or community, which should present similar behaviors. Thus, XLF
//! Core should leverage the knowledge obtained from the group to perform
//! data correlations."
//!
//! Implementation: a kNN similarity graph over per-home behaviour
//! features, label-propagation community detection, and a per-node
//! deviation score (how unlike its own community a node behaves).

use crate::kernel::dot;

/// Column block width of the similarity sweep: dot products are computed
/// for `SIM_BLOCK` candidate rows at a time so the flat feature matrix
/// streams through cache in contiguous runs.
const SIM_BLOCK: usize = 64;

/// A struct-of-arrays feature matrix: one flat row-major `Vec<f64>` plus
/// precomputed squared row norms, so RBF similarity reduces to
/// `exp(-γ(‖x‖² + ‖y‖² − 2x·y))` over contiguous dot products.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    norms: Vec<f64>,
    rows: usize,
    dims: usize,
}

impl FeatureMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row stride (feature dimensions).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// One row as a contiguous slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Rebuilds from row vectors, reusing the flat storage.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn fill_from_rows(&mut self, features: &[Vec<f64>]) {
        self.data.clear();
        self.rows = features.len();
        self.dims = features.first().map_or(0, Vec::len);
        for row in features {
            assert_eq!(row.len(), self.dims, "ragged feature matrix");
            self.data.extend_from_slice(row);
        }
        self.recompute_norms();
    }

    /// Rebuilds from an already-flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != rows * dims`.
    pub fn fill_from_flat(&mut self, flat: &[f64], rows: usize, dims: usize) {
        assert_eq!(flat.len(), rows * dims, "flat feature matrix shape");
        self.data.clear();
        self.data.extend_from_slice(flat);
        self.rows = rows;
        self.dims = dims;
        self.recompute_norms();
    }

    /// Max-abs scales each dimension in place (same arithmetic as
    /// [`normalize_features`]) and refreshes the norms.
    pub fn normalize(&mut self) {
        if self.rows == 0 {
            return;
        }
        for d in 0..self.dims {
            let mut max = 0.0f64;
            for r in 0..self.rows {
                max = max.max(self.data[r * self.dims + d].abs());
            }
            if max > 1e-12 {
                for r in 0..self.rows {
                    self.data[r * self.dims + d] /= max;
                }
            }
        }
        self.recompute_norms();
    }

    fn recompute_norms(&mut self) {
        self.norms.clear();
        for i in 0..self.rows {
            let row = &self.data[i * self.dims..(i + 1) * self.dims];
            self.norms.push(dot(row, row));
        }
    }
}

/// The neighbour ordering both similarity paths share: weight descending,
/// index ascending — exactly what the pre-overhaul stable descending
/// sort produced for candidates generated in ascending index order.
#[inline]
fn neighbour_order(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Shared symmetrize step: if `i` lists `j`, ensure `j` lists `i`.
fn symmetrize(adj: &mut [Vec<(usize, f64)>]) {
    for i in 0..adj.len() {
        for e in 0..adj[i].len() {
            let (j, w) = adj[i][e];
            if !adj[j].iter().any(|&(t, _)| t == i) {
                adj[j].push((i, w));
            }
        }
    }
}

/// Below this threshold an RBF similarity may be subnormal, where the
/// gap argument behind [`EXP_COLLISION_GAP`] no longer holds (subnormal
/// spacing is absolute, not relative).
const EXP_NORMAL_FLOOR: f64 = 1e-300;

/// Two `exp` arguments at least this far apart cannot produce the same
/// normal double: the true values differ by a factor `e^δ ≥ 1 + δ` with
/// `δ = 1e-13`, vastly more than the combined ~1 ulp (≈ 2·2⁻⁵³
/// relative) rounding slack of two faithfully-rounded `exp` calls.
const EXP_COLLISION_GAP: f64 = 1e-13;

/// `exp(a)` underflows to exactly +0 for every `a` below this (the true
/// round-to-zero cutoff is `ln(2⁻¹⁰⁷⁵) ≈ −745.13`).
const EXP_ZERO_ARG: f64 = -746.0;

/// Builds a symmetric kNN similarity graph: `adj[i]` lists `(j, weight)`
/// for the `k` nearest neighbours of `i` by RBF similarity.
pub fn similarity_graph(features: &[Vec<f64>], k: usize, gamma: f64) -> Vec<Vec<(usize, f64)>> {
    let mut matrix = FeatureMatrix::new();
    matrix.fill_from_rows(features);
    let mut dist = Vec::new();
    let mut sel = Vec::new();
    let mut adj = Vec::new();
    similarity_graph_into(&matrix, k, gamma, &mut dist, &mut sel, &mut adj);
    adj
}

/// The blocked SoA similarity sweep, writing into caller-owned buffers
/// so epoch-by-epoch callers allocate nothing after warmup.
///
/// Three structural wins over [`similarity_graph_naive`], with
/// *identical* output bits:
///
/// * each symmetric pair is computed once (`dot` is
///   commutative-safe, so mirroring the value is exact), halving the
///   dominant dot-product work;
/// * per-row top-k runs as an `O(n)` value selection over the dense
///   distance row plus a threshold/tie pass in index order — no
///   per-candidate tuples are built or sorted;
/// * `exp` is deferred until after selection. Similarity
///   `exp(−γ·d²)` is monotone non-increasing in `d²`, so the k largest
///   similarities are the k smallest squared distances *as a value
///   multiset*, and only the k winners plus threshold ties ever need
///   their `exp`. What the monotone map does not preserve is the
///   naive path's tie-break (weight ties are broken by ascending
///   index, and distinct distances can collide to one similarity —
///   e.g. deep underflow to 0), so the fill pass below re-checks
///   similarity equality exactly where collisions are possible,
///   using cheap argument-gap and underflow bounds to skip the
///   `exp` calls that provably cannot collide.
///
/// `dist` is the dense `n × n` squared-distance scratch, `sel` the
/// k-entry selection scratch; `adj` keeps its per-node edge capacity.
pub fn similarity_graph_into(
    matrix: &FeatureMatrix,
    k: usize,
    gamma: f64,
    dist: &mut Vec<f64>,
    sel: &mut Vec<(f64, usize)>,
    adj: &mut Vec<Vec<(usize, f64)>>,
) {
    let n = matrix.rows();
    adj.truncate(n);
    for edges in adj.iter_mut() {
        edges.clear();
    }
    adj.resize_with(n, Vec::new);
    let norms = &matrix.norms;
    // Dense symmetric squared-distance matrix, every pair computed
    // once. The diagonal gets an infinite sentinel so self-edges can
    // never be selected as nearest. No clear: every cell is overwritten
    // (diagonal + both mirror halves), so a bare resize avoids an
    // 8n²-byte memset per call.
    dist.resize(n * n, 0.0);
    // Blocked dot-product sweep over SIM_BLOCK × SIM_BLOCK tiles of the
    // upper triangle: the feature-row panels stay hot across a tile,
    // and both the row writes and the mirrored column writes land in a
    // tile-sized (L2-resident) window instead of striding the full
    // matrix. Per-pair arithmetic is unaffected by the visit order.
    let mut ib = 0;
    while ib < n {
        let iend = (ib + SIM_BLOCK).min(n);
        let mut jb = ib;
        while jb < n {
            let jend = (jb + SIM_BLOCK).min(n);
            for i in ib..iend {
                let xi = matrix.row(i);
                for j in (jb.max(i + 1))..jend {
                    let d2 = (norms[i] + norms[j] - 2.0 * dot(xi, matrix.row(j))).max(0.0);
                    dist[i * n + j] = d2;
                    dist[j * n + i] = d2;
                }
            }
            jb = jend;
        }
        ib = iend;
    }
    for i in 0..n {
        dist[i * n + i] = f64::INFINITY;
    }
    for i in 0..n {
        let row = &dist[i * n..(i + 1) * n];
        let edges = &mut adj[i];
        if n <= k + 1 {
            // Everyone is a neighbour.
            for (j, &d2) in row.iter().enumerate() {
                if j != i {
                    edges.push((j, (-gamma * d2).exp()));
                }
            }
        } else {
            // Bounded (k+1)-smallest scan: one compare per candidate in
            // the common case, instead of copying and partitioning the
            // whole row (the infinite diagonal sentinel sorts last, so
            // with k ≤ n − 2 the threshold entry is always a real
            // candidate). Equal distances keep ascending-index order —
            // insertion lands after equal values and eviction pops the
            // largest index among the worst value — so the array's
            // first k entries are exactly the naive path's stable
            // (weight desc, index asc) selection whenever no exp
            // collision can cross the threshold. The extra slot
            // witnesses the nearest *excluded* distance.
            sel.clear();
            for (j, &d2) in row.iter().enumerate() {
                if sel.len() <= k {
                    let pos = sel.partition_point(|&(v, _)| v <= d2);
                    sel.insert(pos, (d2, j));
                } else if d2 < sel[k].0 {
                    sel.pop();
                    let pos = sel.partition_point(|&(v, _)| v <= d2);
                    sel.insert(pos, (d2, j));
                }
            }
            let dk = sel[k - 1].0;
            let d_next = sel[k].0;
            let a_k = -gamma * dk;
            let s_star = a_k.exp();
            // Fast path — sound when (a) the threshold similarity is a
            // normal double and the nearest excluded distance is too
            // far (in exp-argument terms) to collide onto it, and (b)
            // no nearer candidate collides *down* onto it (checked
            // while taking the k exps). Then similarity ties are
            // distance ties, all retained, already index-ordered.
            let mut fast = s_star > EXP_NORMAL_FLOOR && gamma * (d_next - dk) > EXP_COLLISION_GAP;
            if fast {
                for &(d2, j) in &sel[..k] {
                    let s = if d2 == dk {
                        s_star
                    } else {
                        let s = (-gamma * d2).exp();
                        if s == s_star {
                            fast = false; // collided down: index tie-break needed
                            break;
                        }
                        s
                    };
                    edges.push((j, s));
                }
                if !fast {
                    edges.clear();
                }
            }
            if !fast {
                // Exact tie protocol. Strictly-better candidates first:
                // nearer than the threshold AND strictly more similar.
                // Every strictly-nearer candidate survives the bounded
                // scan — eviction pops the current worst, so a value
                // below the final threshold would need k values below
                // it to be evicted, contradicting the threshold being
                // kth-smallest. At most k − 1 exps.
                for &(d2, j) in sel.iter() {
                    if d2 < dk {
                        let s = (-gamma * d2).exp();
                        if s > s_star {
                            edges.push((j, s));
                        }
                    }
                }
                // Fill the remaining slots with threshold-similarity
                // ties in ascending index order — exactly the set a
                // stable descending weight sort + truncate(k) keeps.
                let mut remaining = k - edges.len();
                for (j, &d2) in row.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    if j == i {
                        continue;
                    }
                    if d2 == dk {
                        edges.push((j, s_star));
                        remaining -= 1;
                        continue;
                    }
                    let a = -gamma * d2;
                    if d2 > dk {
                        if s_star > EXP_NORMAL_FLOOR {
                            if a_k - a > EXP_COLLISION_GAP {
                                continue; // provably below the threshold
                            }
                        } else if a < EXP_ZERO_ARG {
                            // Deep underflow: exp(a) is exactly +0.
                            if s_star == 0.0 {
                                edges.push((j, 0.0));
                                remaining -= 1;
                            }
                            continue;
                        }
                    }
                    let s = a.exp();
                    if s == s_star {
                        edges.push((j, s));
                        remaining -= 1;
                    }
                }
            }
        }
        edges.sort_unstable_by(neighbour_order);
    }
    symmetrize(adj);
}

/// The retained pre-overhaul similarity path: per-pair `Vec` walks and a
/// full stable sort per node (the correlator analogue of the DPI
/// overhaul's `inspect_naive`). Kept for A/B benchmarking and for the
/// bit-equality property tests — it shares [`dot`] and the
/// `‖x‖² + ‖y‖² − 2x·y` arithmetic with the blocked path, so both
/// produce bit-identical graphs.
pub fn similarity_graph_naive(
    features: &[Vec<f64>],
    k: usize,
    gamma: f64,
) -> Vec<Vec<(usize, f64)>> {
    let n = features.len();
    let norms: Vec<f64> = features.iter().map(|f| dot(f, f)).collect();
    let sim = |i: usize, j: usize| -> f64 {
        let d2 = (norms[i] + norms[j] - 2.0 * dot(&features[i], &features[j])).max(0.0);
        (-gamma * d2).exp()
    };
    let mut adj = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let mut neighbours: Vec<(usize, f64)> =
            (0..n).filter(|&j| j != i).map(|j| (j, sim(i, j))).collect();
        neighbours.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        neighbours.truncate(k);
        adj[i] = neighbours;
    }
    symmetrize(&mut adj);
    adj
}

/// Label-propagation community detection: every node starts in its own
/// community and repeatedly adopts the weighted-majority label of its
/// neighbours. Deterministic: ties break toward the smaller label and
/// nodes update in index order.
pub fn label_propagation(adj: &[Vec<(usize, f64)>], max_iters: usize) -> Vec<usize> {
    let mut labels: Vec<usize> = (0..adj.len()).collect();
    propagate_in_place(
        adj,
        max_iters,
        &mut labels,
        &mut Vec::new(),
        &mut Vec::new(),
    );
    labels
}

/// The propagation core, mutating caller-owned labels (which must
/// already hold the identity labelling). Same deterministic update rule
/// as [`label_propagation`].
fn propagate_in_place(
    adj: &[Vec<(usize, f64)>],
    max_iters: usize,
    labels: &mut [usize],
    votes: &mut Vec<(usize, f64)>,
    dirty: &mut Vec<bool>,
) {
    let n = adj.len();
    // Worklist memoization: a node whose neighbourhood labels have not
    // changed since its last evaluation votes identically, so skipping
    // it is exact — each round visits the same changing nodes, in the
    // same order, with the same labels state, as the full-sweep
    // version, and the round count and final labels are bit-identical.
    dirty.clear();
    dirty.resize(n, true);
    for _ in 0..max_iters {
        let mut changed = false;
        for i in 0..n {
            if adj[i].is_empty() || !dirty[i] {
                continue;
            }
            dirty[i] = false;
            // Weighted vote of neighbour labels, accumulated in a
            // reused small vec instead of a fresh BTreeMap per node.
            // Degrees are O(k), so the linear label scan is cheap, and
            // the arithmetic is bit-identical to the map version:
            // per-label weights still sum in adjacency order
            // (first touch included — `0.0 + w` mirrors
            // `or_insert(0.0) += w`).
            votes.clear();
            for &(j, w) in &adj[i] {
                let l = labels[j];
                match votes.iter_mut().find(|&&mut (vl, _)| vl == l) {
                    Some(&mut (_, ref mut vw)) => *vw += w,
                    None => votes.push((l, 0.0 + w)),
                }
            }
            // Ascending-label fold replicating the former
            // `BTreeMap::iter().max_by(...)`: heaviest vote wins, equal
            // weights go to the smaller label.
            votes.sort_unstable_by_key(|&(l, _)| l);
            let mut best = votes[0];
            for &(l, w) in &votes[1..] {
                let ord = best
                    .1
                    .partial_cmp(&w)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(l.cmp(&best.0));
                if ord != std::cmp::Ordering::Greater {
                    best = (l, w);
                }
            }
            if labels[i] != best.0 {
                labels[i] = best.0;
                changed = true;
                // The vote of every neighbour now has a changed input.
                for &(j, _) in &adj[i] {
                    dirty[j] = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Deviation score per node: 1 − (mean similarity to same-community
/// neighbours). Nodes that joined a community but sit far from it — the
/// "one deviant home" of E-M6 — score high.
pub fn deviation_scores(adj: &[Vec<(usize, f64)>], labels: &[usize]) -> Vec<f64> {
    let mut scores = Vec::new();
    deviation_scores_into(adj, labels, &mut scores);
    scores
}

/// Fills `scores` with per-node deviation, reusing its allocation. Same
/// arithmetic as [`deviation_scores`] (weights summed in adjacency
/// order), but without collecting per-node weight vectors.
pub fn deviation_scores_into(adj: &[Vec<(usize, f64)>], labels: &[usize], scores: &mut Vec<f64>) {
    scores.clear();
    for (i, edges) in adj.iter().enumerate() {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for &(j, w) in edges {
            if labels[j] == labels[i] {
                sum += w;
                count += 1;
            }
        }
        scores.push(if count == 0 {
            1.0
        } else {
            1.0 - sum / count as f64
        });
    }
}

/// Scales each feature dimension by its max absolute value so raw counts
/// do not dominate the RBF distance. Dimensions that are zero everywhere
/// are left untouched.
pub fn normalize_features(features: &mut [Vec<f64>]) {
    let Some(first) = features.first() else {
        return;
    };
    for d in 0..first.len() {
        let max = features.iter().map(|f| f[d].abs()).fold(0.0f64, f64::max);
        if max > 1e-12 {
            for f in features.iter_mut() {
                f[d] /= max;
            }
        }
    }
}

/// Output of the batch community-scoring entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityReport {
    /// Community label per node (label-propagation output).
    pub labels: Vec<usize>,
    /// Deviation score per node (high = unlike its own community).
    pub scores: Vec<f64>,
}

/// Batch entry point for fleet-scale graph scoring: normalizes the
/// feature matrix, builds the kNN similarity graph, runs deterministic
/// label propagation, and scores per-node deviation — the whole E-M6
/// pipeline in one call. `k` is clamped to the population size.
pub fn community_report(
    features: &[Vec<f64>],
    k: usize,
    gamma: f64,
    max_iters: usize,
) -> CommunityReport {
    let mut scratch = GraphScratch::new();
    scratch.matrix.fill_from_rows(features);
    community_report_into(k, gamma, max_iters, &mut scratch);
    CommunityReport {
        labels: std::mem::take(&mut scratch.labels),
        scores: std::mem::take(&mut scratch.scores),
    }
}

/// Reusable working set for the whole community pipeline: the SoA
/// feature matrix, the dense distance matrix and selection-row
/// scratch, the adjacency lists, and the label/score outputs.
/// [`community_report`] fills a fresh one per call; a caller that scores
/// many batches (the `exp_engine` epoch bench) keeps one and passes it
/// to [`community_report_into`], so repeated runs allocate nothing once
/// the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct GraphScratch {
    /// Input: callers fill this (e.g. [`FeatureMatrix::fill_from_flat`])
    /// before [`community_report_into`]; it is normalized in place.
    pub matrix: FeatureMatrix,
    dist: Vec<f64>,
    sel: Vec<(f64, usize)>,
    votes: Vec<(usize, f64)>,
    dirty: Vec<bool>,
    adj: Vec<Vec<(usize, f64)>>,
    labels: Vec<usize>,
    scores: Vec<f64>,
}

impl GraphScratch {
    /// Creates an empty working set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Community label per node from the last run.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Deviation score per node from the last run.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

/// Scratch-buffer core of the community pipeline: consumes the features
/// already loaded into `scratch.matrix` (normalizing them in place),
/// rebuilds the kNN graph, propagates labels, and scores deviation,
/// leaving the results in `scratch.labels()` / `scratch.scores()`.
/// Output is identical to [`community_report`]; the only difference is
/// buffer reuse.
pub fn community_report_into(k: usize, gamma: f64, max_iters: usize, scratch: &mut GraphScratch) {
    let n = scratch.matrix.rows();
    scratch.labels.clear();
    scratch.scores.clear();
    if n == 0 {
        return;
    }
    scratch.matrix.normalize();
    let k = k.min(n.saturating_sub(1)).max(1);
    similarity_graph_into(
        &scratch.matrix,
        k,
        gamma,
        &mut scratch.dist,
        &mut scratch.sel,
        &mut scratch.adj,
    );
    scratch.labels.extend(0..n);
    propagate_in_place(
        &scratch.adj,
        max_iters,
        &mut scratch.labels,
        &mut scratch.votes,
        &mut scratch.dirty,
    );
    deviation_scores_into(&scratch.adj, &scratch.labels, &mut scratch.scores);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight clusters of homes plus one outlier.
    fn features() -> Vec<Vec<f64>> {
        let mut f = Vec::new();
        for i in 0..5 {
            f.push(vec![0.0 + i as f64 * 0.01, 0.0]);
        }
        for i in 0..5 {
            f.push(vec![10.0 + i as f64 * 0.01, 10.0]);
        }
        f.push(vec![5.0, 5.0]); // the deviant home
        f
    }

    #[test]
    fn knn_graph_connects_within_clusters() {
        let adj = similarity_graph(&features(), 3, 0.5);
        // Node 0's neighbours should all be in the first cluster.
        for &(j, _) in &adj[0] {
            assert!(j < 5 || j == 10, "node 0 linked to {j}");
        }
    }

    #[test]
    fn label_propagation_finds_two_main_communities() {
        let adj = similarity_graph(&features(), 3, 0.5);
        let labels = label_propagation(&adj, 50);
        // All of cluster one shares a label; all of cluster two shares a
        // (different) label.
        assert!(labels[..5].iter().all(|&l| l == labels[0]));
        assert!(labels[5..10].iter().all(|&l| l == labels[5]));
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn deviant_home_scores_highest() {
        let adj = similarity_graph(&features(), 3, 0.5);
        let labels = label_propagation(&adj, 50);
        let scores = deviation_scores(&adj, &labels);
        let deviant = 10usize;
        for i in 0..10 {
            assert!(
                scores[deviant] > scores[i],
                "home {i} scored {} vs deviant {}",
                scores[i],
                scores[deviant]
            );
        }
    }

    #[test]
    fn isolated_nodes_score_max_deviation() {
        let adj = vec![vec![], vec![(0usize, 0.9)]];
        let labels = vec![0, 0];
        let scores = deviation_scores(&adj, &labels);
        assert_eq!(scores[0], 1.0);
    }

    #[test]
    fn propagation_is_deterministic() {
        let adj = similarity_graph(&features(), 3, 0.5);
        assert_eq!(label_propagation(&adj, 50), label_propagation(&adj, 50));
    }

    #[test]
    fn normalize_scales_each_dimension_to_unit_max() {
        let mut f = vec![vec![10.0, 0.0], vec![-5.0, 0.0]];
        normalize_features(&mut f);
        assert_eq!(f, vec![vec![1.0, 0.0], vec![-0.5, 0.0]]);
    }

    #[test]
    fn community_report_flags_the_outlier_end_to_end() {
        // Scale one dimension up so the raw features would mislead an
        // unnormalized graph; the batch entry point normalizes first.
        let mut scaled = features();
        for f in &mut scaled {
            f[0] *= 1000.0;
        }
        let report = community_report(&scaled, 3, 8.0, 50);
        assert_eq!(report.labels.len(), 11);
        let deviant = 10usize;
        for i in 0..10 {
            assert!(report.scores[deviant] > report.scores[i]);
        }
        // And it is reproducible.
        assert_eq!(report, community_report(&scaled, 3, 8.0, 50));
    }

    #[test]
    fn reused_scratch_matches_fresh_reports() {
        // A larger run first, then a smaller one: stale buffer contents
        // from the first run must not leak into the second.
        let large = features();
        let small: Vec<Vec<f64>> = large[3..9].to_vec();
        let mut scratch = GraphScratch::new();
        for rows in [&large, &small] {
            scratch.matrix.fill_from_rows(rows);
            community_report_into(3, 0.5, 50, &mut scratch);
            let fresh = community_report(rows, 3, 0.5, 50);
            assert_eq!(scratch.labels(), &fresh.labels[..]);
            assert_eq!(scratch.scores(), &fresh.scores[..]);
        }
    }

    #[test]
    fn community_report_handles_tiny_populations() {
        assert!(community_report(&[], 3, 1.0, 10).labels.is_empty());
        let one = community_report(&[vec![1.0]], 3, 1.0, 10);
        assert_eq!(one.labels, vec![0]);
        assert_eq!(one.scores, vec![1.0]); // no neighbours at all
    }
}
