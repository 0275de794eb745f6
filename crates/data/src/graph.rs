//! Synthetic power-law graphs with planted communities, plus the
//! GraphSAGE neighbour sampler.
//!
//! The paper's GNN workloads (Reddit, Amazon, ogbn-mag) share two
//! properties this generator reproduces: a heavy-tailed degree
//! distribution (hub nodes = hot embeddings, which is what makes the HET
//! cache effective) and label structure recoverable from the topology
//! (so node classification is learnable). We use preferential attachment
//! for the power law and class-biased (homophilous) edge targets for the
//! label signal. Node-id embeddings are the only input features, exactly
//! like the paper's note about Reddit (§5.1).

use crate::Key;
use het_rng::rngs::SmallRng;
use het_rng::seq::SliceRandom;
use het_rng::{Rng, SeedableRng};

/// Configuration of the synthetic graph.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Number of nodes (= number of embedding keys).
    pub n_nodes: usize,
    /// Edges attached per new node (preferential attachment parameter).
    pub attach_m: usize,
    /// Number of node classes.
    pub n_classes: usize,
    /// Probability an edge endpoint is drawn from the same class
    /// (homophily — the label signal).
    pub homophily: f64,
    /// Probability an edge endpoint is drawn from the planted-hub Zipf
    /// distribution instead of the degree-proportional pool. Plain
    /// preferential attachment yields a degree exponent of ~3, whose
    /// hubs are much lighter than real social/citation graphs (Reddit's
    /// top communities, ogbn-mag's venue hubs); the planted-hub mix
    /// reproduces the heavy access concentration the paper's Fig. 3/8
    /// rely on.
    pub hub_bias: f64,
    /// Zipf exponent of the planted-hub distribution over node IDs.
    pub hub_zipf: f64,
    /// Fraction of the lowest-ID (hub) nodes forming a densely
    /// interconnected core — the *rich-club* structure real social and
    /// citation networks exhibit. Without it, a hub's neighbourhood is a
    /// uniform spray over the tail and 2-hop sampling never
    /// concentrates; with it, walks fold back into the cacheable core
    /// (this is what gives the paper's Fig. 8 its 85–97 % hit rates).
    pub rich_club_fraction: f64,
    /// Core-to-core edges added per rich-club member.
    pub rich_club_links: usize,
    /// Fraction of nodes held out for testing, in (0, 1).
    pub test_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            n_nodes: 20_000,
            attach_m: 8,
            n_classes: 16,
            homophily: 0.8,
            hub_bias: 0.85,
            hub_zipf: 1.05,
            rich_club_fraction: 0.08,
            rich_club_links: 64,
            test_fraction: 0.2,
            seed: 0x6EA9,
        }
    }
}

impl GraphConfig {
    /// Scaled-down stand-in for Reddit (dense, medium-sized).
    pub fn reddit_like(seed: u64) -> Self {
        GraphConfig {
            n_nodes: 24_000,
            attach_m: 15,
            n_classes: 16,
            seed,
            ..Default::default()
        }
    }

    /// Scaled-down stand-in for the Amazon co-purchasing graph (large,
    /// sparser).
    pub fn amazon_like(seed: u64) -> Self {
        GraphConfig {
            n_nodes: 60_000,
            attach_m: 6,
            n_classes: 16,
            seed,
            ..Default::default()
        }
    }

    /// Scaled-down stand-in for ogbn-mag (large citation graph).
    pub fn ogbn_mag_like(seed: u64) -> Self {
        GraphConfig {
            n_nodes: 50_000,
            attach_m: 5,
            n_classes: 16,
            seed,
            ..Default::default()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        GraphConfig {
            n_nodes: 300,
            attach_m: 4,
            n_classes: 4,
            seed,
            ..Default::default()
        }
    }
}

/// An undirected graph in CSR form with node labels and a train/test
/// node split.
#[derive(Clone, Debug)]
pub struct Graph {
    config: GraphConfig,
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
    /// Per-adjacency-entry prefix sums of neighbour degrees, aligned with
    /// `neighbors`; powers degree-biased neighbour sampling.
    degree_prefix: Vec<u64>,
    labels: Vec<u16>,
    train_nodes: Vec<u32>,
    test_nodes: Vec<u32>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Graph {
    /// Generates the graph from its configuration. Deterministic per
    /// seed.
    ///
    /// # Panics
    /// Panics on degenerate configurations (too few nodes/classes).
    pub fn generate(config: GraphConfig) -> Self {
        assert!(
            config.n_nodes > config.attach_m + 1,
            "need more nodes than attach_m"
        );
        assert!(config.n_classes >= 2, "need at least two classes");
        assert!(
            (0.0..=1.0).contains(&config.homophily),
            "homophily must be a probability"
        );
        assert!(
            config.test_fraction > 0.0 && config.test_fraction < 1.0,
            "test fraction must be in (0,1)"
        );
        assert!(
            (0.0..=1.0).contains(&config.hub_bias),
            "hub bias must be a probability"
        );
        let n = config.n_nodes;
        let m = config.attach_m;
        // The hub set is the rich-club core: hub-biased edges land inside
        // it (Zipf-ranked), and the core is densely interconnected below.
        let core = ((n as f64 * config.rich_club_fraction).round() as usize).clamp(
            if config.rich_club_fraction > 0.0 {
                2
            } else {
                0
            },
            n,
        );
        let hub_sampler = crate::zipf::ZipfSampler::new(core.max(m + 1), config.hub_zipf);
        let mut rng = SmallRng::seed_from_u64(config.seed);

        let labels: Vec<u16> = (0..n)
            .map(|_| rng.gen_range(0..config.n_classes) as u16)
            .collect();

        // Per-class views of the core (IDs in popularity order) with
        // matching Zipf samplers, so homophilous hub edges can target the
        // popular hubs *of the right class* directly.
        let core_span = core.max(m + 1).min(n);
        let mut class_core: Vec<Vec<u32>> = vec![Vec::new(); config.n_classes];
        for v in 0..core_span as u32 {
            class_core[labels[v as usize] as usize].push(v);
        }
        let class_hub_samplers: Vec<Option<crate::zipf::ZipfSampler>> = class_core
            .iter()
            .map(|ids| {
                if ids.is_empty() {
                    None
                } else {
                    Some(crate::zipf::ZipfSampler::new(ids.len(), config.hub_zipf))
                }
            })
            .collect();

        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        // Endpoint pools for preferential attachment: every edge endpoint
        // appended once, so sampling uniformly from the pool is sampling
        // proportional to degree.
        let mut global_pool: Vec<u32> = Vec::with_capacity(2 * n * m);
        let mut class_pool: Vec<Vec<u32>> = vec![Vec::new(); config.n_classes];

        let add_edge = |adj: &mut Vec<Vec<u32>>,
                        global_pool: &mut Vec<u32>,
                        class_pool: &mut Vec<Vec<u32>>,
                        u: u32,
                        v: u32| {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
            global_pool.push(u);
            global_pool.push(v);
            class_pool[labels[u as usize] as usize].push(u);
            class_pool[labels[v as usize] as usize].push(v);
        };

        // Seed clique over the first m+1 nodes.
        for u in 0..=(m as u32) {
            for v in (u + 1)..=(m as u32) {
                add_edge(&mut adj, &mut global_pool, &mut class_pool, u, v);
            }
        }

        for u in (m + 1)..n {
            let u = u as u32;
            let cls = labels[u as usize] as usize;
            let mut attached = 0usize;
            let mut attempts = 0usize;
            while attached < m && attempts < m * 20 {
                attempts += 1;
                // Hub edges follow the Zipf popularity over the core,
                // preferring same-class hubs with probability
                // `homophily` (nodes join the popular communities of
                // their own class); the remainder is class-biased
                // preferential attachment.
                let v = if rng.gen_bool(config.hub_bias) {
                    let candidate = if rng.gen_bool(config.homophily) {
                        match &class_hub_samplers[cls] {
                            Some(z) => class_core[cls][z.sample(&mut rng)],
                            None => hub_sampler.sample(&mut rng) as u32,
                        }
                    } else {
                        hub_sampler.sample(&mut rng) as u32
                    };
                    if candidate >= u {
                        // Hub not born yet: fall back to the pool.
                        global_pool[rng.gen_range(0..global_pool.len())]
                    } else {
                        candidate
                    }
                } else if rng.gen_bool(config.homophily) && !class_pool[cls].is_empty() {
                    class_pool[cls][rng.gen_range(0..class_pool[cls].len())]
                } else {
                    global_pool[rng.gen_range(0..global_pool.len())]
                };
                if v == u || adj[u as usize].contains(&v) {
                    continue;
                }
                add_edge(&mut adj, &mut global_pool, &mut class_pool, u, v);
                attached += 1;
            }
        }

        // Rich club: densely interconnect the lowest-ID (hub) nodes so
        // 2-hop walks concentrate instead of spraying over the tail.
        if core >= 2 {
            for u in 0..core as u32 {
                let mut added = 0usize;
                let mut attempts = 0usize;
                while added < config.rich_club_links && attempts < config.rich_club_links * 10 {
                    attempts += 1;
                    let v = rng.gen_range(0..core as u32);
                    if v == u || adj[u as usize].contains(&v) {
                        continue;
                    }
                    add_edge(&mut adj, &mut global_pool, &mut class_pool, u, v);
                    added += 1;
                }
            }
        }

        // CSR conversion.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut neighbors = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        for list in &adj {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u64);
        }
        // Per-node prefix sums of neighbour importance for degree-biased
        // sampling. The weight of neighbour w is √deg(w): enough bias to
        // concentrate walks on the hub core (cache-friendliness), damped
        // enough that a single global hub cannot drown out the
        // class-homophilous neighbours that carry the label signal.
        let mut degree_prefix = Vec::with_capacity(neighbors.len());
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            let mut acc = 0u64;
            for &w in &neighbors[lo..hi] {
                acc += (adj[w as usize].len() as f64).sqrt().ceil() as u64;
                degree_prefix.push(acc);
            }
        }

        // Train/test split by hashed node ID, then shuffle the train
        // order once so consecutive batches are not ID-correlated.
        let mut train_nodes = Vec::new();
        let mut test_nodes = Vec::new();
        let threshold = (config.test_fraction * u64::MAX as f64) as u64;
        for v in 0..n as u32 {
            if splitmix64(v as u64 ^ config.seed ^ 0x5917) < threshold {
                test_nodes.push(v);
            } else {
                train_nodes.push(v);
            }
        }
        train_nodes.shuffle(&mut rng);

        Graph {
            config,
            offsets,
            neighbors,
            degree_prefix,
            labels,
            train_nodes,
            test_nodes,
        }
    }

    /// The configuration this graph was generated from.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.config.n_nodes
    }

    /// Neighbour list of one node.
    pub fn neighbors_of(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of one node.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors_of(v).len()
    }

    /// Samples one neighbour of `v` with probability proportional to the
    /// neighbour's degree (FastGCN-style importance sampling; also the
    /// stationary visit distribution of an unbiased random walk).
    /// Returns `None` for isolated nodes.
    pub fn sample_neighbor_degree_biased<R: Rng>(&self, v: u32, rng: &mut R) -> Option<u32> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        if lo == hi {
            return None;
        }
        let prefix = &self.degree_prefix[lo..hi];
        let total = *prefix.last().expect("non-empty adjacency");
        let draw = rng.gen_range(0..total);
        let idx = prefix.partition_point(|&p| p <= draw);
        Some(self.neighbors[lo + idx.min(hi - lo - 1)])
    }

    /// Class label of one node.
    pub fn label(&self, v: u32) -> usize {
        self.labels[v as usize] as usize
    }

    /// Training node IDs (shuffled once at generation).
    pub fn train_nodes(&self) -> &[u32] {
        &self.train_nodes
    }

    /// Held-out test node IDs.
    pub fn test_nodes(&self) -> &[u32] {
        &self.test_nodes
    }
}

/// One GraphSAGE mini-batch: targets plus 2-hop sampled neighbourhoods,
/// flattened with fixed fanouts (sampling with replacement).
#[derive(Clone, Debug)]
pub struct GnnBatch {
    /// Target nodes, length B.
    pub targets: Vec<u32>,
    /// Class labels of the targets.
    pub labels: Vec<usize>,
    /// Hop-1 neighbours of targets, length `B·f1`.
    pub hop1: Vec<u32>,
    /// Hop-2 neighbours of the targets themselves, length `B·f2`
    /// (needed for the targets' own layer-1 representations).
    pub hop2_targets: Vec<u32>,
    /// Hop-2 neighbours of the hop-1 nodes, length `B·f1·f2`.
    pub hop2_hop1: Vec<u32>,
    /// Fanout at hop 1.
    pub fanout1: usize,
    /// Fanout at hop 2.
    pub fanout2: usize,
}

impl GnnBatch {
    /// Number of target examples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when the batch has no targets.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Sorted, deduplicated set of every node appearing anywhere in the
    /// batch — the embedding keys `Het.Read` receives.
    pub fn unique_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self
            .targets
            .iter()
            .chain(&self.hop1)
            .chain(&self.hop2_targets)
            .chain(&self.hop2_hop1)
            .map(|&v| v as Key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// Deterministic fixed-fanout neighbour sampler for 2-layer GraphSAGE.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    /// Fanout at hop 1.
    pub fanout1: usize,
    /// Fanout at hop 2.
    pub fanout2: usize,
    /// Sample neighbours with probability ∝ their degree instead of
    /// uniformly (FastGCN-style importance sampling). This matches the
    /// hub-concentrated access patterns the paper observes on its real
    /// graphs.
    pub degree_biased: bool,
}

impl NeighborSampler {
    /// Creates a uniform-neighbour sampler with the given fanouts.
    pub fn new(fanout1: usize, fanout2: usize) -> Self {
        assert!(fanout1 > 0 && fanout2 > 0, "fanouts must be positive");
        NeighborSampler {
            fanout1,
            fanout2,
            degree_biased: false,
        }
    }

    /// Creates a degree-biased (importance) sampler.
    pub fn degree_biased(fanout1: usize, fanout2: usize) -> Self {
        NeighborSampler {
            degree_biased: true,
            ..Self::new(fanout1, fanout2)
        }
    }

    /// Samples a training batch of `batch_size` targets starting at
    /// cursor `start` (wrapping over the shuffled train node order).
    pub fn train_batch(&self, graph: &Graph, start: u64, batch_size: usize) -> GnnBatch {
        let nodes = graph.train_nodes();
        self.batch_from(graph, nodes, start, batch_size, 0x7121)
    }

    /// Samples a test batch of `batch_size` targets starting at `start`.
    pub fn test_batch(&self, graph: &Graph, start: u64, batch_size: usize) -> GnnBatch {
        let nodes = graph.test_nodes();
        self.batch_from(graph, nodes, start, batch_size, 0x7E57)
    }

    fn batch_from(
        &self,
        graph: &Graph,
        nodes: &[u32],
        start: u64,
        batch_size: usize,
        salt: u64,
    ) -> GnnBatch {
        assert!(!nodes.is_empty(), "node split is empty");
        let mut rng = SmallRng::seed_from_u64(splitmix64(
            graph.config().seed ^ salt ^ start.wrapping_mul(0x6C62_272E_07BB_0142),
        ));
        let mut targets = Vec::with_capacity(batch_size);
        let mut labels = Vec::with_capacity(batch_size);
        for i in 0..batch_size as u64 {
            let v = nodes[((start + i) % nodes.len() as u64) as usize];
            targets.push(v);
            labels.push(graph.label(v));
        }
        let hop1 = self.sample_layer(graph, &targets, self.fanout1, &mut rng);
        let hop2_targets = self.sample_layer(graph, &targets, self.fanout2, &mut rng);
        let hop2_hop1 = self.sample_layer(graph, &hop1, self.fanout2, &mut rng);
        GnnBatch {
            targets,
            labels,
            hop1,
            hop2_targets,
            hop2_hop1,
            fanout1: self.fanout1,
            fanout2: self.fanout2,
        }
    }

    fn sample_layer(
        &self,
        graph: &Graph,
        parents: &[u32],
        fanout: usize,
        rng: &mut SmallRng,
    ) -> Vec<u32> {
        let mut out = Vec::with_capacity(parents.len() * fanout);
        for &p in parents {
            let nbrs = graph.neighbors_of(p);
            for _ in 0..fanout {
                if nbrs.is_empty() {
                    // Isolated node: fall back to self-loops so shapes
                    // stay rectangular.
                    out.push(p);
                } else if self.degree_biased {
                    out.push(graph.sample_neighbor_degree_biased(p, rng).unwrap_or(p));
                } else {
                    out.push(nbrs[rng.gen_range(0..nbrs.len())]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> Graph {
        Graph::generate(GraphConfig::tiny(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Graph::generate(GraphConfig::tiny(7));
        let b = Graph::generate(GraphConfig::tiny(7));
        assert_eq!(a.neighbors_of(5), b.neighbors_of(5));
        assert_eq!(a.train_nodes(), b.train_nodes());
        let c = Graph::generate(GraphConfig::tiny(8));
        assert_ne!(a.train_nodes(), c.train_nodes());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = tiny_graph();
        for v in 0..g.n_nodes() as u32 {
            for &u in g.neighbors_of(v) {
                assert!(
                    g.neighbors_of(u).contains(&v),
                    "edge {v}->{u} missing its reverse"
                );
            }
        }
    }

    #[test]
    fn no_self_loops_or_duplicate_edges() {
        let g = tiny_graph();
        for v in 0..g.n_nodes() as u32 {
            let nbrs = g.neighbors_of(v);
            assert!(!nbrs.contains(&v), "self loop at {v}");
            let mut sorted = nbrs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), nbrs.len(), "duplicate edge at {v}");
        }
    }

    #[test]
    fn every_node_has_minimum_degree() {
        let g = tiny_graph();
        for v in 0..g.n_nodes() as u32 {
            assert!(g.degree(v) >= 1, "node {v} is isolated");
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = Graph::generate(GraphConfig {
            n_nodes: 5_000,
            ..GraphConfig::tiny(3)
        });
        let mut degrees: Vec<usize> = (0..g.n_nodes() as u32).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = degrees.iter().sum();
        let top1pct: usize = degrees.iter().take(g.n_nodes() / 100).sum();
        assert!(
            top1pct as f64 / total as f64 > 0.05,
            "hubs should carry disproportionate degree (got {})",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn homophily_is_visible_in_edges() {
        // Hub and rich-club edges connect across classes by design, so
        // isolate the homophilous attachment path.
        let g = Graph::generate(GraphConfig {
            homophily: 0.9,
            hub_bias: 0.0,
            rich_club_fraction: 0.0,
            ..GraphConfig::tiny(5)
        });
        let mut same = 0usize;
        let mut total = 0usize;
        for v in 0..g.n_nodes() as u32 {
            for &u in g.neighbors_of(v) {
                total += 1;
                if g.label(u) == g.label(v) {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        // 4 classes, random baseline 0.25.
        assert!(
            frac > 0.5,
            "same-class edge fraction {frac} should beat random 0.25"
        );
    }

    #[test]
    fn split_partitions_all_nodes() {
        let g = tiny_graph();
        assert_eq!(g.train_nodes().len() + g.test_nodes().len(), g.n_nodes());
        assert!(!g.train_nodes().is_empty());
        assert!(!g.test_nodes().is_empty());
        let mut all: Vec<u32> = g
            .train_nodes()
            .iter()
            .chain(g.test_nodes())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), g.n_nodes());
    }

    #[test]
    fn sampler_shapes_are_rectangular() {
        let g = tiny_graph();
        let s = NeighborSampler::new(5, 3);
        let b = s.train_batch(&g, 0, 8);
        assert_eq!(b.len(), 8);
        assert!(!b.is_empty());
        assert_eq!(b.hop1.len(), 8 * 5);
        assert_eq!(b.hop2_targets.len(), 8 * 3);
        assert_eq!(b.hop2_hop1.len(), 8 * 5 * 3);
        assert_eq!(b.labels.len(), 8);
    }

    #[test]
    fn sampled_neighbors_are_real_neighbors() {
        let g = tiny_graph();
        let s = NeighborSampler::new(4, 2);
        let b = s.train_batch(&g, 0, 16);
        for (i, &t) in b.targets.iter().enumerate() {
            for &u in &b.hop1[i * 4..(i + 1) * 4] {
                assert!(
                    g.neighbors_of(t).contains(&u) || u == t,
                    "{u} is not a neighbor of target {t}"
                );
            }
        }
    }

    #[test]
    fn sampler_is_deterministic_per_cursor() {
        let g = tiny_graph();
        let s = NeighborSampler::new(4, 2);
        let a = s.train_batch(&g, 10, 8);
        let b = s.train_batch(&g, 10, 8);
        assert_eq!(a.hop1, b.hop1);
        assert_eq!(a.hop2_hop1, b.hop2_hop1);
        let c = s.train_batch(&g, 11, 8);
        assert_ne!(a.hop1, c.hop1);
    }

    #[test]
    fn unique_keys_sorted_and_deduped() {
        let g = tiny_graph();
        let s = NeighborSampler::new(4, 2);
        let b = s.train_batch(&g, 0, 8);
        let keys = b.unique_keys();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().all(|&k| k < g.n_nodes() as Key));
    }

    #[test]
    fn labels_match_graph() {
        let g = tiny_graph();
        let s = NeighborSampler::new(2, 2);
        let b = s.test_batch(&g, 0, 8);
        for (i, &t) in b.targets.iter().enumerate() {
            assert_eq!(b.labels[i], g.label(t));
        }
    }
}
