//! The synthetic Web-crawl generator.
//!
//! Produces a page graph plus source assignment whose structural statistics
//! match the paper's crawls (see `DESIGN.md` §2 for the substitution
//! argument): heavy-tailed source sizes, ~75% intra-source link locality, a
//! small set of partner hosts per host (pinning the Table 1 source-edge
//! counts), and a labeled spam population organized in collusive clusters
//! with hijacked in-links from legitimate pages.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sr_graph::ids::{node_id, node_range};
use sr_graph::source_graph::{extract, SourceGraph, SourceGraphConfig};
use sr_graph::{CsrGraph, GraphBuilder, SourceAssignment};

use crate::config::CrawlConfig;
use crate::powerlaw::{partition_power_law, DegreeSampler, WeightedIndexSampler, ZipfSampler};
use crate::urls;

/// A generated crawl: page graph, page→source assignment, and the ground-
/// truth spam labels.
#[derive(Debug, Clone)]
pub struct SyntheticCrawl {
    /// The page graph `G_P`.
    pub pages: CsrGraph,
    /// Page → source assignment (sources are contiguous page ranges).
    pub assignment: SourceAssignment,
    /// Ground-truth spam source ids, ascending.
    pub spam_sources: Vec<u32>,
    /// First page id of each source (length `num_sources + 1`); source `s`
    /// owns pages `page_ranges[s]..page_ranges[s+1]`.
    pub page_ranges: Vec<u32>,
}

impl SyntheticCrawl {
    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.num_nodes()
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.assignment.num_sources()
    }

    /// Whether `source` is ground-truth spam.
    pub fn is_spam(&self, source: u32) -> bool {
        self.spam_sources.binary_search(&source).is_ok()
    }

    /// Pages of `source` as a contiguous id range.
    pub fn pages_of(&self, source: u32) -> std::ops::Range<u32> {
        self.page_ranges[source as usize]..self.page_ranges[source as usize + 1]
    }

    /// Home page (first page) of `source`.
    pub fn home_page(&self, source: u32) -> u32 {
        self.page_ranges[source as usize]
    }

    /// Host name of `source`.
    pub fn host_name(&self, source: u32) -> String {
        urls::host_name(source, self.is_spam(source))
    }

    /// Extracts the source graph under `config`.
    pub fn source_graph(&self, config: SourceGraphConfig) -> SourceGraph {
        extract(&self.pages, &self.assignment, config)
            .expect("generated assignment always covers the page graph")
    }

    /// Randomly samples `k` of the ground-truth spam sources — the paper's
    /// "fewer than 10%" seed-set experiment (§6.2) uses exactly this.
    pub fn sample_spam_seed(&self, k: usize, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pool = self.spam_sources.clone();
        let k = k.min(pool.len());
        // Partial Fisher–Yates.
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let mut seedset = pool[..k].to_vec();
        seedset.sort_unstable();
        seedset
    }
}

/// Generates a crawl from `config`. Deterministic: equal configs (including
/// the seed) produce identical crawls.
pub fn generate(config: &CrawlConfig) -> SyntheticCrawl {
    config.validate();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let n_sources = config.num_sources;

    // 1. Source sizes and contiguous page ranges.
    let sizes = partition_power_law(
        config.total_pages,
        n_sources,
        config.source_size_exponent,
        config.max_source_size,
        &mut rng,
    );
    let mut page_ranges = Vec::with_capacity(n_sources + 1);
    page_ranges.push(0u32);
    for &s in &sizes {
        page_ranges.push(page_ranges.last().unwrap() + node_id(s));
    }
    let total_pages = *page_ranges.last().unwrap() as usize;
    // Source sizes must tile the configured page count exactly, or every
    // downstream experiment runs on a wrong-sized crawl.
    assert_eq!(total_pages, config.total_pages);

    let mut page_to_source = vec![0u32; total_pages];
    for (s, w) in page_ranges.windows(2).enumerate() {
        for p in w[0]..w[1] {
            page_to_source[p as usize] = node_id(s);
        }
    }

    // 2. Spam labels: a random subset of sources.
    let spam_sources: Vec<u32> = if config.spam.is_some() {
        let k = config.expected_spam_sources();
        let mut ids: Vec<u32> = node_range(n_sources).collect();
        for i in 0..k.min(n_sources) {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        let mut spam = ids[..k.min(n_sources)].to_vec();
        spam.sort_unstable();
        spam
    } else {
        Vec::new()
    };
    let is_spam = |s: u32, spam: &[u32]| -> bool { spam.binary_search(&s).is_ok() };

    // 3. Partner sources: who each source links to across the source level.
    //    Attachment weight = (size + mean_size) * zipf-popularity: the size
    //    term keeps big hosts visible, the popularity term (a Zipf factor
    //    over a random permutation of ranks, exponent < 1 so no single hub
    //    dominates) spreads source in-degree over orders of magnitude the
    //    way real host in-degrees are spread. Both matter downstream: score
    //    spread governs how many sources a rank manipulation overtakes.
    let mean_size = total_pages as f64 / n_sources as f64;
    let popularity: Vec<f64> = {
        let mut ranks: Vec<usize> = (1..=n_sources).collect();
        for i in (1..n_sources).rev() {
            let j = rng.gen_range(0..=i);
            ranks.swap(i, j);
        }
        ranks.into_iter().map(|r| (r as f64).powf(-0.8)).collect()
    };
    let size_weights: Vec<f64> = sizes
        .iter()
        .zip(&popularity)
        .map(|(&s, &p)| (s as f64 + mean_size) * p)
        .collect();
    let partner_picker = WeightedIndexSampler::new(&size_weights);
    let partner_count = DegreeSampler::with_mean(
        config.partner_exponent,
        config.mean_partners,
        n_sources.max(2),
    );
    let mut partners: Vec<Vec<u32>> = Vec::with_capacity(n_sources);
    let mut seen = vec![false; n_sources];
    for s in 0..n_sources {
        let want = partner_count
            .sample(&mut rng)
            .min(n_sources.saturating_sub(1));
        let mut list: Vec<u32> = Vec::with_capacity(want);
        let mut attempts = 0;
        // Size-weighted draws are skewed, so collecting `want` *distinct*
        // partners needs a generous rejection budget — especially at small
        // source counts where the head of the distribution saturates fast.
        while list.len() < want && attempts < want * 16 + 64 {
            attempts += 1;
            let cand = node_id(partner_picker.sample(&mut rng));
            if cand as usize != s && !seen[cand as usize] {
                seen[cand as usize] = true;
                list.push(cand);
            }
        }
        for &c in &list {
            seen[c as usize] = false;
        }
        partners.push(list);
    }

    // 4. Page links.
    let out_degree = DegreeSampler::with_mean(
        config.out_degree_exponent,
        config.mean_out_degree,
        5_000.min(total_pages.max(2)),
    );
    // Links to a partner concentrate on the first few partners (Zipf over
    // the partner list), mirroring how a host links to a couple of favorite
    // neighbors far more than the rest.
    let mut builder = GraphBuilder::with_nodes(total_pages);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a capacity hint: the cast saturates, and an oversized hint fails in the allocator either way"
    )]
    builder.reserve_edges((total_pages as f64 * config.mean_out_degree * 1.2) as usize);
    let mut partner_rank_cache: Vec<Option<ZipfSampler>> = vec![None, None];
    // partner list lengths vary; cache Zipf samplers per length.
    let zipf_for_len = |len: usize, cache: &mut Vec<Option<ZipfSampler>>| {
        if cache.len() <= len {
            cache.resize(len + 1, None);
        }
        if cache[len].is_none() {
            cache[len] = Some(ZipfSampler::new(1.5, len));
        }
        cache[len].clone().unwrap()
    };

    for s in node_range(n_sources) {
        let range = page_ranges[s as usize]..page_ranges[s as usize + 1];
        let size = (range.end - range.start) as usize;
        let plist = &partners[s as usize];
        // Every partner is guaranteed one "blogroll" link from the home page,
        // so the realized distinct source out-degree equals the sampled
        // partner count — this is what pins the Table 1 edges/source ratio.
        for &t in plist {
            builder.add_edge(range.start, page_ranges[t as usize]);
        }
        for p in range.clone() {
            let d = out_degree.sample(&mut rng);
            for _ in 0..d {
                let intra = size > 1 && rng.gen::<f64>() < config.locality;
                if intra {
                    let q = range.start + rng.gen_range(0..node_id(size));
                    if q != p {
                        builder.add_edge(p, q);
                    }
                } else if !plist.is_empty() {
                    let z = zipf_for_len(plist.len(), &mut partner_rank_cache);
                    let t_source = plist[z.sample(&mut rng) - 1];
                    let t_range =
                        page_ranges[t_source as usize]..page_ranges[t_source as usize + 1];
                    let t_size = t_range.end - t_range.start;
                    // Half the inter-source links hit the home page.
                    let q = if rng.gen::<bool>() || t_size == 1 {
                        t_range.start
                    } else {
                        t_range.start + rng.gen_range(0..t_size)
                    };
                    builder.add_edge(p, q);
                }
            }
        }
    }

    // 5. Spam wiring: farms within each spam source, collusion within each
    //    cluster, hijacked links from legitimate pages.
    if let Some(spam_cfg) = &config.spam {
        for cluster in spam_sources.chunks(spam_cfg.cluster_size) {
            let target = cluster[0];
            let target_home = page_ranges[target as usize];
            for &s in cluster {
                let range = page_ranges[s as usize]..page_ranges[s as usize + 1];
                let size = range.end - range.start;
                for p in range.clone() {
                    for _ in 0..spam_cfg.farm_links_per_page {
                        if size > 1 {
                            let q = range.start + rng.gen_range(0..size);
                            if q != p {
                                builder.add_edge(p, q);
                            }
                        }
                    }
                    for _ in 0..spam_cfg.cross_links_per_page {
                        // Half the collusion mass funnels to the cluster
                        // target's home page (the single promoted page);
                        // the rest is a link exchange among members.
                        if rng.gen::<bool>() || cluster.len() == 1 {
                            if p != target_home {
                                builder.add_edge(p, target_home);
                            }
                        } else {
                            let other = cluster[rng.gen_range(0..cluster.len())];
                            let o_range =
                                page_ranges[other as usize]..page_ranges[other as usize + 1];
                            let o_size = o_range.end - o_range.start;
                            let q = o_range.start + rng.gen_range(0..o_size);
                            if q != p {
                                builder.add_edge(p, q);
                            }
                        }
                    }
                    for _ in 0..spam_cfg.community_links_per_page {
                        // Community glue across clusters: the whole spam
                        // population stays weakly connected, so proximity
                        // propagation from any seed can reach all of it.
                        let other = spam_sources[rng.gen_range(0..spam_sources.len())];
                        if other != s {
                            let q = page_ranges[other as usize];
                            if q != p {
                                builder.add_edge(p, q);
                            }
                        }
                    }
                }
            }
        }

        if !spam_sources.is_empty() && spam_cfg.hijack_fraction > 0.0 {
            let legit_pages: u64 = node_range(n_sources)
                .filter(|&s| !is_spam(s, &spam_sources))
                .map(|s| u64::from(page_ranges[s as usize + 1] - page_ranges[s as usize]))
                .sum();
            let hijacks = crate::round_count(legit_pages as f64 * spam_cfg.hijack_fraction);
            let mut placed = 0usize;
            let mut attempts = 0usize;
            while placed < hijacks && attempts < hijacks * 10 + 100 {
                attempts += 1;
                let p = rng.gen_range(0..node_id(total_pages));
                if is_spam(page_to_source[p as usize], &spam_sources) {
                    continue;
                }
                let s = spam_sources[rng.gen_range(0..spam_sources.len())];
                let s_range = page_ranges[s as usize]..page_ranges[s as usize + 1];
                let q = s_range.start + rng.gen_range(0..s_range.end - s_range.start);
                builder.add_edge(p, q);
                placed += 1;
            }
        }
    }

    let pages = builder.build();
    let assignment = SourceAssignment::new(page_to_source, n_sources)
        .expect("page_to_source built from valid ranges");
    SyntheticCrawl {
        pages,
        assignment,
        spam_sources,
        page_ranges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::stats::{edge_fraction, graph_stats};

    fn tiny() -> SyntheticCrawl {
        generate(&CrawlConfig::tiny(42))
    }

    #[test]
    fn page_and_source_counts_match_config() {
        let c = tiny();
        assert_eq!(c.num_pages(), 1_200);
        assert_eq!(c.num_sources(), 60);
        assert_eq!(c.spam_sources.len(), 6);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = generate(&CrawlConfig::tiny(7));
        let b = generate(&CrawlConfig::tiny(7));
        assert_eq!(a.pages, b.pages);
        assert_eq!(a.spam_sources, b.spam_sources);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&CrawlConfig::tiny(1));
        let b = generate(&CrawlConfig::tiny(2));
        assert_ne!(a.pages, b.pages);
    }

    #[test]
    fn mean_out_degree_near_target() {
        let c = generate(&CrawlConfig {
            spam: None,
            ..CrawlConfig::default()
        });
        let stats = graph_stats(&c.pages);
        // Dedup and self-link skips shave a bit off the target of 8.
        assert!(
            (4.0..=9.0).contains(&stats.mean_out_degree),
            "mean out-degree {}",
            stats.mean_out_degree
        );
    }

    #[test]
    fn locality_near_target() {
        let c = generate(&CrawlConfig {
            spam: None,
            ..CrawlConfig::default()
        });
        let map = c.assignment.raw().to_vec();
        let frac = edge_fraction(&c.pages, |u, v| map[u as usize] == map[v as usize]);
        assert!(
            (0.6..=0.9).contains(&frac),
            "intra-source link fraction {frac}"
        );
    }

    #[test]
    fn source_out_degree_matches_mean_partners() {
        let cfg = CrawlConfig {
            spam: None,
            ..CrawlConfig::default()
        };
        let c = generate(&cfg);
        let sg = c.source_graph(SourceGraphConfig::consensus());
        let per_source = sg.num_edges() as f64 / sg.num_sources() as f64;
        // Partner sampling + dedup keeps this within ~40% of the target.
        assert!(
            (cfg.mean_partners * 0.5..=cfg.mean_partners * 1.4).contains(&per_source),
            "source edges per source = {per_source}, target {}",
            cfg.mean_partners
        );
    }

    #[test]
    fn spam_sources_are_labeled_and_clustered() {
        let c = tiny();
        assert!(!c.spam_sources.is_empty());
        for &s in &c.spam_sources {
            assert!(c.is_spam(s));
        }
        assert!(!c.is_spam(*c.spam_sources.last().unwrap() + 1 % c.num_sources() as u32));
        // Collusion: spam pages link across cluster members, so at least one
        // spam source must have an out-edge to another spam source.
        let sg = c.source_graph(SourceGraphConfig::consensus());
        let cross = c
            .spam_sources
            .iter()
            .any(|&s| sg.structural().neighbors(s).iter().any(|&t| c.is_spam(t)));
        assert!(cross, "expected collusive edges among spam sources");
    }

    #[test]
    fn hijacked_links_exist() {
        let mut cfg = CrawlConfig::tiny(11);
        if let Some(s) = cfg.spam.as_mut() {
            s.hijack_fraction = 0.05;
        }
        let c = generate(&cfg);
        let map = c.assignment.raw().to_vec();
        let spam = c.spam_sources.clone();
        let hijack_edges: usize = (0..c.num_pages() as u32)
            .filter(|&p| spam.binary_search(&map[p as usize]).is_err())
            .map(|p| {
                c.pages
                    .neighbors(p)
                    .iter()
                    .filter(|&&q| spam.binary_search(&map[q as usize]).is_ok())
                    .count()
            })
            .sum();
        assert!(hijack_edges > 0, "no legit->spam links found");
    }

    #[test]
    fn sample_spam_seed_is_subset_and_deterministic() {
        let c = tiny();
        let s1 = c.sample_spam_seed(3, 99);
        let s2 = c.sample_spam_seed(3, 99);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 3);
        for s in &s1 {
            assert!(c.is_spam(*s));
        }
        let more = c.sample_spam_seed(1_000, 5);
        assert_eq!(more.len(), c.spam_sources.len());
    }

    #[test]
    fn page_ranges_partition_pages() {
        let c = tiny();
        assert_eq!(c.page_ranges.len(), c.num_sources() + 1);
        assert_eq!(*c.page_ranges.last().unwrap() as usize, c.num_pages());
        for s in 0..c.num_sources() as u32 {
            for p in c.pages_of(s) {
                assert_eq!(c.assignment.raw()[p as usize], s);
            }
        }
    }

    #[test]
    fn spam_free_crawl_has_no_labels() {
        let c = generate(&CrawlConfig {
            spam: None,
            ..CrawlConfig::tiny(3)
        });
        assert!(c.spam_sources.is_empty());
    }
}
