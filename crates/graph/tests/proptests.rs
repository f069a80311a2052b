//! Property-based tests of the graph substrate.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use sr_graph::source_graph::{extract, EdgeWeighting, SourceGraphConfig};
use sr_graph::transpose::{transpose, transpose_weighted};
use sr_graph::varint;
use sr_graph::{CsrGraph, EdgePartition, GraphBuilder, SellRows, SourceAssignment, WeightedGraph};

/// Distinguishes temp dirs across concurrently running proptest cases.
static CASE_COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..150).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..500)
            .prop_map(move |edges| GraphBuilder::from_edges_exact(n as usize, edges).unwrap())
    })
}

/// The fused transpose packing against `build` over the materialised
/// transpose at `chunks` chunks — layout and partition equal (`==`), weighted
/// and not — plus the unpack ∘ pack round trips.
fn check_fused_packing(g: &CsrGraph, chunks: usize) {
    let t = transpose(g);
    let p = EdgePartition::from_offsets(t.offsets(), chunks);
    let (sell, fused_p) = SellRows::from_transpose(g, chunks);
    assert_eq!(fused_p.row_bounds(), p.row_bounds());
    assert_eq!(fused_p, p);
    assert_eq!(sell, SellRows::build(t.offsets(), t.targets(), &p));
    assert_eq!(sell.unpack(), t);

    // Distinct weights, so equality checks where each weight lands.
    let weights: Vec<f64> = (0..g.num_edges()).map(|k| 0.5 + k as f64).collect();
    let w = WeightedGraph::from_parts(g.offsets().to_vec(), g.targets().to_vec(), weights);
    let tw = transpose_weighted(&w);
    let (sell_w, fused_pw) = SellRows::from_transpose_weighted(&w, chunks);
    assert_eq!(fused_pw.row_bounds(), p.row_bounds());
    assert_eq!(fused_pw, p);
    assert_eq!(
        sell_w,
        SellRows::build_weighted(tw.offsets(), tw.targets(), tw.weights(), &p)
    );
    assert_eq!(sell_w.unpack_weighted(), tw);

    // unpack ∘ build over the forward rows themselves.
    let pf = EdgePartition::from_offsets(g.offsets(), chunks);
    assert_eq!(SellRows::build(g.offsets(), g.targets(), &pf).unpack(), *g);
}

#[test]
fn fused_transpose_packing_edge_cases() {
    let graph =
        |n: usize, edges: Vec<(u32, u32)>| GraphBuilder::from_edges_exact(n, edges).unwrap();
    let shapes = [
        // The empty graph.
        CsrGraph::empty(0),
        // All dangling: nine zero-degree rows, two lane groups of them.
        CsrGraph::empty(9),
        // Self-loops on every node, some nodes with one more edge.
        graph(
            10,
            (0..10)
                .map(|u| (u, u))
                .chain([(2, 7), (9, 0), (4, 5)])
                .collect(),
        ),
        // Every node links to node 0 only: one hub row, and past the first
        // chunk lane groups of zero-degree rows starting at the packed end.
        graph(11, (0..11).map(|u| (u, 0)).collect()),
        // Two 4-cliques with self-loops: each chunk is one full lane group
        // of degree-4 rows, the last of which ends the packed array.
        graph(
            8,
            (0..8u32)
                .flat_map(|u| (0..4).map(move |j| (u, u / 4 * 4 + j)))
                .collect(),
        ),
    ];
    for g in &shapes {
        for chunks in 1..=4 {
            check_fused_packing(g, chunks);
        }
    }
}

/// The §3.2 consensus counts, naively: the set of distinct (page, target
/// source) pairs, counted per (source, target source), self pairs included.
fn oracle_counts(g: &CsrGraph, a: &SourceAssignment) -> BTreeMap<(u32, u32), usize> {
    let map = a.raw();
    let pairs: BTreeSet<(u32, u32)> = g.edges().map(|(p, q)| (p, map[q as usize])).collect();
    let mut counts = BTreeMap::new();
    for (p, t) in pairs {
        *counts.entry((map[p as usize], t)).or_insert(0) += 1;
    }
    counts
}

/// The transition rows the counts imply under `config`: every source's
/// self-edge added (§3.3), then each row weighted, given weight 1 on its
/// self-edge if it has no out-mass, and normalized by its ascending-target
/// sum.
fn oracle_rows(
    counts: &BTreeMap<(u32, u32), usize>,
    sources: usize,
    config: SourceGraphConfig,
) -> Vec<BTreeMap<u32, f64>> {
    let mut rows: Vec<BTreeMap<u32, f64>> = (0..sources as u32)
        .map(|s| BTreeMap::from([(s, 0.0)]))
        .collect();
    for (&(s, t), &c) in counts {
        let w = match config.weighting {
            EdgeWeighting::Consensus => c as f64,
            EdgeWeighting::Uniform => 1.0,
        };
        rows[s as usize].insert(t, w);
    }
    for (s, row) in (0u32..).zip(&mut rows) {
        let mut sum: f64 = row.values().sum();
        if sum == 0.0 {
            row.insert(s, 1.0);
            sum = 1.0;
        }
        for w in row.values_mut() {
            *w /= sum;
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_transpose_packing_equals_build(g in arb_graph(), chunks in 1usize..=4) {
        check_fused_packing(&g, chunks);
    }

    #[test]
    fn varint_roundtrip(values in proptest::collection::vec(any::<u32>(), 0..100)) {
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_u32(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(varint::read_u32(&buf, &mut pos), Some(v));
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrip(v in -1_000_000_000i64..1_000_000_000) {
        prop_assert_eq!(varint::unzigzag(varint::zigzag(v)), v);
    }

    #[test]
    fn edge_partition_invariants(g in arb_graph(), max_chunks in 1usize..12) {
        let p = EdgePartition::from_offsets(g.offsets(), max_chunks);
        // Covers every row exactly once, in order.
        let bounds = p.row_bounds();
        prop_assert_eq!(bounds[0], 0);
        prop_assert_eq!(p.num_rows(), g.num_nodes());
        for w in bounds.windows(2) {
            prop_assert!(w[0] <= w[1], "bounds must be non-decreasing");
        }
        prop_assert_eq!(p.num_edges(), g.num_edges());
        prop_assert!(p.num_chunks() <= max_chunks);
        // No chunk exceeds the edge budget except by its final row.
        let offsets = g.offsets();
        for c in p.chunks() {
            if c.is_empty() {
                continue;
            }
            let edges = offsets[c.end] - offsets[c.start];
            let last_row = offsets[c.end] - offsets[c.end - 1];
            prop_assert!(edges <= p.edge_budget() + last_row,
                "chunk {:?} owns {edges} edges, budget {} + final row {last_row}",
                c, p.edge_budget());
        }
    }

    #[test]
    fn sell_row_sums_match_csr(g in arb_graph(), max_chunks in 1usize..12) {
        // The packed degree-run layout must reproduce every CSR row sum
        // bitwise: packing permutes rows, never a row's column order.
        let p = EdgePartition::from_offsets(g.offsets(), max_chunks);
        let sell = SellRows::build(g.offsets(), g.targets(), &p);
        let n = g.num_nodes();
        let values: Vec<f64> = (0..n).map(|i| 0.017 + 1.0 / (i + 1) as f64).collect();
        let mut out = vec![f64::NAN; n];
        for (i, c) in p.chunks().enumerate() {
            let (lo, hi) = (c.start, c.end);
            sell.row_sums_into(i, lo, &values, &mut out[lo..hi]);
        }
        for v in 0..n as u32 {
            let mut acc = 0.0;
            for &u in g.neighbors(v) {
                acc += values[u as usize];
            }
            prop_assert_eq!(out[v as usize], acc, "row {} sum differs", v);
        }
    }

    #[test]
    fn builder_dedups_and_sorts(g in arb_graph()) {
        for u in 0..g.num_nodes() as u32 {
            let n = g.neighbors(u);
            for w in n.windows(2) {
                prop_assert!(w[0] < w[1], "unsorted or duplicate adjacency");
            }
        }
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn io_edge_list_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        sr_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let back = sr_graph::io::read_edge_list(&buf[..], Some(g.num_nodes())).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn host_and_domain_extraction_total(s in "[a-z0-9:/@.?#-]{0,40}") {
        // Host/domain extraction is a total function over arbitrary junk.
        let h = sr_graph::source_map::host_of(&s);
        let d = sr_graph::source_map::domain_of(h);
        prop_assert!(h.len() <= s.len());
        prop_assert!(d.len() <= h.len());
        prop_assert!(h.ends_with(d));
    }

    #[test]
    fn transpose_preserves_degree_totals(g in arb_graph()) {
        let t = transpose(&g);
        let out_total: usize = (0..g.num_nodes() as u32).map(|u| g.out_degree(u)).sum();
        let in_total: usize = (0..t.num_nodes() as u32).map(|u| t.out_degree(u)).sum();
        prop_assert_eq!(out_total, in_total);
    }

    #[test]
    fn transpose_involution_and_ascending_sources(g in arb_graph()) {
        let t = transpose(&g);
        // Sources ascending per row: the counting-sort fill visits origin
        // nodes in ascending order, and the PR-4 scatter path depends on it.
        for v in 0..t.num_nodes() as u32 {
            for w in t.neighbors(v).windows(2) {
                prop_assert!(w[0] < w[1], "row {} of the transpose is not strictly ascending", v);
            }
        }
        prop_assert!(t.validate().is_ok());
        // transpose ∘ transpose round-trips exactly.
        prop_assert_eq!(transpose(&t), g);
    }

    #[test]
    fn transpose_weighted_involution(g in arb_graph()) {
        // Deterministic weights from the edge endpoints, so equality of the
        // double transpose checks weight *placement*, not just structure.
        let weights: Vec<f64> = g.edges().map(|(u, v)| 1.0 + f64::from(u) + 0.5 * f64::from(v)).collect();
        let w = sr_graph::WeightedGraph::from_parts(g.offsets().to_vec(), g.targets().to_vec(), weights);
        let tt = transpose_weighted(&transpose_weighted(&w));
        prop_assert_eq!(tt.offsets(), w.offsets());
        prop_assert_eq!(tt.targets(), w.targets());
        for u in 0..w.num_nodes() as u32 {
            prop_assert_eq!(tt.edge_weights(u), w.edge_weights(u), "weights of row {} moved", u);
        }
    }

    #[test]
    fn sharded_graph_stores_the_transpose(g in arb_graph(), shard_bytes in 8usize..512, page in 16usize..128) {
        // Structure-level out-of-core roundtrip: a sharded build from the
        // forward graph must decode back to the reverse CSR under any shard
        // size and page size, with forward out-degrees intact.
        let case = CASE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("sr_graph_prop_shard_{}_{case}", std::process::id()));
        let path = dir.join("g.shards");
        let mut sharded = sr_graph::shard::build_from_csr(&g, &dir, &path, shard_bytes).unwrap();
        sharded.set_page_size(page);
        prop_assert!(sharded.validate().is_ok());
        prop_assert_eq!(sharded.to_csr().unwrap(), transpose(&g));
        for u in 0..g.num_nodes() as u32 {
            prop_assert_eq!(sharded.out_degrees()[u as usize] as usize, g.out_degree(u));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extract_matches_the_naive_consensus_oracle_bitwise(
        g in arb_graph(),
        sources in 1usize..12,
        seeds in proptest::collection::vec(any::<u32>(), 150),
    ) {
        let map: Vec<u32> = (0..g.num_nodes()).map(|p| seeds[p] % sources as u32).collect();
        let a = SourceAssignment::new(map, sources).unwrap();
        let counts = oracle_counts(&g, &a);
        // w(s_i, s_j) counts unique pages of s_i, so it can never exceed
        // |s_i| — the §3.2 anti-hijacking property in its sharpest form.
        let sizes = a.source_sizes();
        for (&(si, sj), &w) in &counts {
            prop_assert!(w <= sizes[si as usize],
                "w({si},{sj}) = {w} exceeds source size {}", sizes[si as usize]);
        }
        for weighting in [EdgeWeighting::Consensus, EdgeWeighting::Uniform] {
            let config = SourceGraphConfig { weighting };
            let sg = extract(&g, &a, config).unwrap();
            let rows = oracle_rows(&counts, sources, config);
            prop_assert_eq!(sg.num_sources(), sources);
            prop_assert_eq!(sg.num_pages(), g.num_nodes());
            for (s, row) in (0u32..).zip(&rows) {
                let want: Vec<(u32, u64)> = row.iter().map(|(&t, w)| (t, w.to_bits())).collect();
                let got: Vec<(u32, u64)> = sg.transitions().neighbors(s).iter().copied()
                    .zip(sg.transitions().edge_weights(s).iter().map(|w| w.to_bits()))
                    .collect();
                prop_assert_eq!(got, want, "{:?}: transition row {}", config, s);
                let structural: Vec<u32> = row.keys().copied()
                    .filter(|&t| t != s && counts.contains_key(&(s, t)))
                    .collect();
                prop_assert_eq!(sg.structural().neighbors(s), structural.as_slice());
            }
        }
    }

    #[test]
    fn extraction_row_mass_complete(g in arb_graph()) {
        let n = g.num_nodes();
        let sources = (n / 4).max(1);
        let map: Vec<u32> = (0..n).map(|p| (p * 7 % sources) as u32).collect();
        let a = SourceAssignment::new(map, sources).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        prop_assert!(sg.transitions().is_row_stochastic(1e-9));
        prop_assert_eq!(sg.num_sources(), sources);
        // Structural edges never include self-loops.
        for s in 0..sources as u32 {
            prop_assert!(!sg.structural().has_edge(s, s));
        }
    }
}
