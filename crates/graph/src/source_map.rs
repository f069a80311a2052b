//! Page → source assignment (§3.1 of the paper).
//!
//! A *source* is a logical collection of Web pages. The paper's evaluation
//! "extracted the host information for each page URL and assigned pages to
//! sources based on this host information"; this module implements exactly
//! that, plus arbitrary user-supplied groupings (the paper notes sources
//! "could be augmented with expert knowledge").

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{node_id, node_range, NodeId, PageId, SourceId};

/// Maps every page to the source that contains it. An assignment is fixed
/// once built: a crawl gains pages and sources through a
/// [`crate::delta::CrawlDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceAssignment {
    page_to_source: Vec<NodeId>,
    num_sources: usize,
}

impl SourceAssignment {
    /// Builds an assignment from a dense `page → source` vector.
    pub fn new(page_to_source: Vec<NodeId>, num_sources: usize) -> Result<Self, GraphError> {
        for &s in &page_to_source {
            if s as usize >= num_sources {
                return Err(GraphError::SourceOutOfRange {
                    source: s,
                    num_sources,
                });
            }
        }
        Ok(SourceAssignment {
            page_to_source,
            num_sources,
        })
    }

    /// Assigns each page its own singleton source — the degenerate case in
    /// which SourceRank collapses back to page-level PageRank structure.
    pub fn identity(num_pages: usize) -> Self {
        SourceAssignment {
            page_to_source: node_range(num_pages).collect(),
            num_sources: num_pages,
        }
    }

    /// Groups pages by host name, assigning dense source ids in first-seen
    /// order. Returns the assignment and the host of each source.
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only interning table: ids come from `names.len()` in first-seen insertion order and the map is never iterated, so its bucket order cannot leak into output (pinned by `identical_inputs_produce_identical_ids`)"
    )]
    pub fn from_hosts<I, S>(hosts: I) -> (Self, Vec<String>)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        use std::collections::HashMap;
        let mut ids: HashMap<String, NodeId> = HashMap::new();
        let mut names: Vec<String> = Vec::new();
        let mut page_to_source = Vec::new();
        for h in hosts {
            let key = h.as_ref().to_ascii_lowercase();
            let id = *ids.entry(key.clone()).or_insert_with(|| {
                names.push(key);
                node_id(names.len() - 1)
            });
            page_to_source.push(id);
        }
        let num_sources = names.len();
        (
            SourceAssignment {
                page_to_source,
                num_sources,
            },
            names,
        )
    }

    /// Groups pages by the host component of each URL (see [`host_of`]).
    pub fn from_urls<I, S>(urls: I) -> (Self, Vec<String>)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let hosts: Vec<String> = urls
            .into_iter()
            .map(|u| host_of(u.as_ref()).to_string())
            .collect();
        Self::from_hosts(hosts)
    }

    /// Source containing `page`.
    #[inline]
    pub fn source_of(&self, page: PageId) -> SourceId {
        SourceId(self.page_to_source[page.index()])
    }

    /// Raw `page → source` slice (indexable by raw page id).
    #[inline]
    pub fn raw(&self) -> &[NodeId] {
        &self.page_to_source
    }

    /// Number of pages covered.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.page_to_source.len()
    }

    /// Number of sources.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of pages in each source.
    pub fn source_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_sources];
        for &s in &self.page_to_source {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Groups page ids by source in a CSR-like layout: the one page
    /// grouping, used by source-graph extraction and its incremental
    /// maintainer.
    pub fn group_pages(&self) -> SourceGroups {
        let mut offsets = vec![0usize; self.num_sources + 1];
        for &s in &self.page_to_source {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..self.num_sources {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut pages: Vec<NodeId> = vec![0; self.page_to_source.len()];
        for (p, &s) in self.page_to_source.iter().enumerate() {
            pages[cursor[s as usize]] = node_id(p);
            cursor[s as usize] += 1;
        }
        SourceGroups { offsets, pages }
    }

    /// Validates the assignment against a page graph.
    pub fn validate_for(&self, page_graph: &CsrGraph) -> Result<(), GraphError> {
        if self.num_pages() != page_graph.num_nodes() {
            return Err(GraphError::AssignmentLengthMismatch {
                graph_pages: page_graph.num_nodes(),
                assignment_pages: self.num_pages(),
            });
        }
        Ok(())
    }
}

/// Pages grouped by source: `pages[offsets[s]..offsets[s+1]]` lists the pages
/// of source `s` in ascending page order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceGroups {
    offsets: Vec<usize>,
    pages: Vec<NodeId>,
}

impl SourceGroups {
    /// Pages of source `s`.
    #[inline]
    pub fn pages_of(&self, s: SourceId) -> &[NodeId] {
        &self.pages[self.offsets[s.index()]..self.offsets[s.index() + 1]]
    }

    /// Number of sources.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Prefix page counts: source `s` holds pages
    /// `offsets[s]..offsets[s + 1]` of the grouping.
    #[inline]
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Extracts the host component of a URL.
///
/// Handles optional scheme (`http://`, `https://`, or scheme-relative `//`),
/// userinfo (`user:pass@`), port, path, query and fragment. Operates purely
/// lexically; no DNS semantics. Returns the input unchanged (up to the first
/// delimiter) when no scheme is present.
pub fn host_of(url: &str) -> &str {
    let rest = url
        .split_once("://")
        .map(|(_, r)| r)
        .or_else(|| url.strip_prefix("//"))
        .unwrap_or(url);
    let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let authority = &rest[..end];
    let host_port = authority.rsplit_once('@').map_or(authority, |(_, h)| h);
    host_port.split_once(':').map_or(host_port, |(h, _)| h)
}

/// Multi-part public suffixes that take three labels for a registrable
/// domain (a pragmatic subset; a production system would carry the full
/// public-suffix list).
const TWO_LABEL_SUFFIXES: [&str; 8] = [
    "co.uk", "ac.uk", "gov.uk", "com.au", "co.jp", "co.nz", "com.br", "org.uk",
];

/// Reduces a host name to its registrable domain — the coarser grouping
/// §3.1 alludes to ("a source could be defined using the host or domain
/// information"): `news.bbc.co.uk → bbc.co.uk`, `www.example.com →
/// example.com`. Hosts with one label (or IP-like all-numeric labels) are
/// returned unchanged.
pub fn domain_of(host: &str) -> &str {
    let labels: Vec<&str> = host.split('.').collect();
    if labels.len() <= 2 || labels.iter().all(|l| l.chars().all(|c| c.is_ascii_digit())) {
        return host;
    }
    let last_two =
        &host[host.len() - labels[labels.len() - 2].len() - labels[labels.len() - 1].len() - 1..];
    let keep = if TWO_LABEL_SUFFIXES.contains(&last_two) {
        3
    } else {
        2
    };
    if labels.len() <= keep {
        return host;
    }
    let tail_len: usize = labels[labels.len() - keep..]
        .iter()
        .map(|l| l.len() + 1)
        .sum::<usize>()
        - 1;
    &host[host.len() - tail_len..]
}

impl SourceAssignment {
    /// Groups pages by *registrable domain* instead of full host — the
    /// coarser granularity of §3.1 (`blog.example.com` and
    /// `shop.example.com` become one source). Returns the assignment and
    /// the domain of each source.
    pub fn from_urls_by_domain<I, S>(urls: I) -> (Self, Vec<String>)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let domains: Vec<String> = urls
            .into_iter()
            .map(|u| domain_of(host_of(u.as_ref())).to_ascii_lowercase())
            .collect();
        Self::from_hosts(domains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("http://www.example.com/a/b?q=1"), "www.example.com");
        assert_eq!(host_of("https://example.org"), "example.org");
        assert_eq!(host_of("//cdn.example.net/x.js"), "cdn.example.net");
        assert_eq!(host_of("http://user:pw@example.com:8080/p"), "example.com");
        assert_eq!(host_of("example.com/path"), "example.com");
        assert_eq!(host_of("http://example.com#frag"), "example.com");
        assert_eq!(host_of("http://example.com?x=1"), "example.com");
    }

    #[test]
    fn domain_extraction() {
        assert_eq!(domain_of("www.example.com"), "example.com");
        assert_eq!(domain_of("example.com"), "example.com");
        assert_eq!(domain_of("a.b.c.example.org"), "example.org");
        assert_eq!(domain_of("news.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(domain_of("bbc.co.uk"), "bbc.co.uk");
        assert_eq!(domain_of("localhost"), "localhost");
        assert_eq!(domain_of("192.168.0.1"), "192.168.0.1");
        assert_eq!(domain_of("shop.example.com.au"), "example.com.au");
    }

    #[test]
    fn from_urls_by_domain_merges_subdomains() {
        let (a, names) = SourceAssignment::from_urls_by_domain(vec![
            "http://blog.example.com/post",
            "http://shop.example.com/cart",
            "http://other.net/",
        ]);
        assert_eq!(a.num_sources(), 2);
        assert_eq!(a.source_of(PageId(0)), a.source_of(PageId(1)));
        assert_eq!(names[0], "example.com");
    }

    #[test]
    fn from_urls_groups_by_host_case_insensitively() {
        let (a, names) =
            SourceAssignment::from_urls(vec!["http://A.com/1", "http://b.com/1", "http://a.COM/2"]);
        assert_eq!(a.num_pages(), 3);
        assert_eq!(a.num_sources(), 2);
        assert_eq!(a.source_of(PageId(0)), a.source_of(PageId(2)));
        assert_eq!(names, vec!["a.com", "b.com"]);
    }

    #[test]
    fn identical_inputs_produce_identical_ids() {
        // Determinism pin for the interning HashMap above: source ids must
        // derive from first-seen order alone, never from the map's
        // per-process-randomized bucket order. Two independent builds from
        // the same input must agree id-for-id and name-for-name.
        let urls = [
            "http://zeta.example/1",
            "http://alpha.example/2",
            "http://Mu.example/3",
            "http://alpha.example/4",
            "http://mu.EXAMPLE/5",
            "http://omega.example/6",
        ];
        let (a1, n1) = SourceAssignment::from_urls(urls);
        let (a2, n2) = SourceAssignment::from_urls(urls);
        assert_eq!(a1, a2);
        assert_eq!(n1, n2);
        // And the order is pinned to first appearance, not alphabetical.
        assert_eq!(
            n1,
            vec![
                "zeta.example",
                "alpha.example",
                "mu.example",
                "omega.example"
            ]
        );
        assert_eq!(a1.raw(), &[0, 1, 2, 1, 2, 3]);
    }

    #[test]
    fn new_rejects_out_of_range() {
        let err = SourceAssignment::new(vec![0, 2], 2).unwrap_err();
        assert_eq!(
            err,
            GraphError::SourceOutOfRange {
                source: 2,
                num_sources: 2
            }
        );
    }

    #[test]
    fn identity_assignment() {
        let a = SourceAssignment::identity(3);
        assert_eq!(a.num_sources(), 3);
        assert_eq!(a.source_of(PageId(2)), SourceId(2));
    }

    #[test]
    fn source_sizes_and_groups() {
        let a = SourceAssignment::new(vec![1, 0, 1, 1], 2).unwrap();
        assert_eq!(a.source_sizes(), vec![1, 3]);
        let g = a.group_pages();
        assert_eq!(g.num_sources(), 2);
        assert_eq!(g.pages_of(SourceId(0)), &[1]);
        assert_eq!(g.pages_of(SourceId(1)), &[0, 2, 3]);
    }

    #[test]
    fn validate_against_graph() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1], 2).unwrap();
        assert!(a.validate_for(&g).is_ok());
        let short = SourceAssignment::new(vec![0], 1).unwrap();
        assert!(matches!(
            short.validate_for(&g),
            Err(GraphError::AssignmentLengthMismatch { .. })
        ));
    }
}
