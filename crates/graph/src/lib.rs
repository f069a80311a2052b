#![warn(missing_docs)]

//! # sr-graph — Web graph substrate
//!
//! Storage and manipulation of Web-scale directed graphs for the
//! Spam-Resilient SourceRank reproduction (Caverlee, Webb & Liu, IPPS 2007).
//!
//! The paper models the Web twice over:
//!
//! * the **page graph** `G_P = <P, L_P>` — vertices are pages, edges are
//!   hyperlinks; and
//! * the **source graph** `G_S = <S, L_S>` — vertices are logical groups of
//!   pages ("sources", e.g. one per host) and an edge `(s_i, s_j)` exists
//!   whenever some page of `s_i` links to some page of `s_j`.
//!
//! This crate provides:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency, the workhorse format;
//! * [`GraphBuilder`] — edge-list accumulation with sorting/deduplication;
//! * [`codec`] — the WebGraph-style interval + gap + varint row encoding
//!   (the paper's data-management layer was the Java WebGraph framework);
//! * [`ShardedCompressedGraph`] and [`WalkStore`] — the on-disk shard and
//!   walk-cache files, two schemas over one segment container;
//! * [`SourceAssignment`] — the page → source mapping, including host
//!   extraction from URLs;
//! * [`source_graph`] — extraction of the source graph with the paper's
//!   *source consensus* edge weights (§3.2) and mandatory self-edges (§3.3);
//! * [`stats`] — graph summary statistics, which the generator's tests
//!   check its crawls on.
//!
//! * [`partition`] — edge-balanced row partitions of CSR offsets, the chunk
//!   layout the fused SpMV engine in `sr-core` parallelizes over;
//! * [`delta`] — incremental mutation: [`GraphDelta`] batches over a
//!   [`DeltaOverlay`] with periodic compaction back to CSR, plus
//!   touched-row-only source-graph maintenance for the evolving crawls of
//!   the paper's §6 spam campaigns.
//!
//! All structures are plain owned data (`Vec`-backed), cheap to share across
//! `sr-par` worker threads by reference.

pub mod builder;
pub mod codec;
pub mod csr;
pub mod delta;
pub mod error;
pub mod extsort;
pub mod ids;
// The reader paths — the text readers and the segment container behind
// every binary file — turn corrupt or truncated input into a typed error,
// never a panic (the io_robustness and segment_container suites).
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod io;
pub mod pager;
pub mod panel;
pub mod partition;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
mod segment;
pub mod sell;
pub mod shard;
pub mod source_graph;
pub mod source_map;
pub mod stats;
pub mod subgraph;
pub mod transpose;
pub mod varint;
pub mod walks;
pub mod weighted;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::{CrawlDelta, DeltaOverlay, DeltaSummary, GraphDelta, SourceGraphMaintainer};
pub use error::GraphError;
pub use extsort::ExternalEdgeSorter;
pub use ids::{NodeId, PageId, SourceId};
pub use pager::{ByteSource, PagedReader, SourceReader};
pub use panel::PANEL_MAX_WIDTH;
pub use partition::EdgePartition;
pub use segment::ChunkSpan;
pub use sell::SellRows;
pub use shard::{ChunkArena, ShardedCompressedGraph, ShardedGraphBuilder};
pub use source_graph::{SourceGraph, SourceGraphConfig};
pub use source_map::SourceAssignment;
pub use walks::{WalkFileWriter, WalkMeta, WalkStore, WalkTable};
pub use weighted::WeightedGraph;
