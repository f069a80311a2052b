//! Error type for graph construction and validation.

use std::fmt;

/// Errors raised while building or validating graph structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node id `>= num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The declared number of nodes.
        num_nodes: usize,
    },
    /// A page id in a [`crate::SourceAssignment`] referenced a source id
    /// `>= num_sources`.
    SourceOutOfRange {
        /// The offending source id.
        source: u32,
        /// The declared number of sources.
        num_sources: usize,
    },
    /// A source assignment covers a different number of pages than the graph.
    AssignmentLengthMismatch {
        /// Pages in the graph.
        graph_pages: usize,
        /// Pages covered by the assignment.
        assignment_pages: usize,
    },
    /// The compressed byte stream ended mid-varint or mid-list.
    CorruptCompressedStream {
        /// Node whose adjacency list failed to decode.
        node: u32,
    },
    /// A signed gap produced while compressing exceeded the ZigZag-encodable
    /// range (`i32::MIN..=i32::MAX`); encoding it would silently truncate
    /// into a wrong but decodable varint.
    GapOverflow {
        /// Node whose adjacency list produced the gap.
        node: u32,
        /// The unencodable signed gap.
        delta: i64,
    },
    /// An I/O operation on out-of-core storage (shard file, spill run)
    /// failed. Carries the rendered [`std::io::Error`] — `GraphError` is
    /// `Clone + Eq`, which `std::io::Error` is not.
    Io {
        /// Human-readable description of the failed operation.
        message: String,
    },
    /// An on-disk segment container (a shard file or a walk cache) is
    /// malformed: its envelope (magic, schema tag, segment table, column)
    /// or a row's framing, degree or item count fails validation.
    CorruptContainer {
        /// What failed to validate, prefixed with the file's schema.
        message: String,
    },
}

impl GraphError {
    /// Wraps a [`std::io::Error`] raised by `context` into
    /// [`GraphError::Io`].
    pub fn io(context: &str, err: &std::io::Error) -> Self {
        GraphError::Io {
            message: format!("{context}: {err}"),
        }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node id {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::SourceOutOfRange {
                source,
                num_sources,
            } => {
                write!(
                    f,
                    "source id {source} out of range for {num_sources} sources"
                )
            }
            GraphError::AssignmentLengthMismatch {
                graph_pages,
                assignment_pages,
            } => write!(
                f,
                "source assignment covers {assignment_pages} pages but graph has {graph_pages}"
            ),
            GraphError::CorruptCompressedStream { node } => {
                write!(f, "corrupt compressed adjacency stream at node {node}")
            }
            GraphError::GapOverflow { node, delta } => {
                write!(
                    f,
                    "gap {delta} at node {node} exceeds the zigzag-encodable range"
                )
            }
            GraphError::Io { message } => write!(f, "graph storage i/o error: {message}"),
            GraphError::CorruptContainer { message } => write!(f, "corrupt {message}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_ids() {
        let e = GraphError::NodeOutOfRange {
            node: 9,
            num_nodes: 5,
        };
        assert!(e.to_string().contains('9'));
        let e = GraphError::SourceOutOfRange {
            source: 3,
            num_sources: 2,
        };
        assert!(e.to_string().contains('3'));
        let e = GraphError::AssignmentLengthMismatch {
            graph_pages: 4,
            assignment_pages: 7,
        };
        assert!(e.to_string().contains('7'));
        let e = GraphError::CorruptCompressedStream { node: 1 };
        assert!(e.to_string().contains("node 1"));
        let e = GraphError::GapOverflow {
            node: 2,
            delta: 3_000_000_000,
        };
        assert!(e.to_string().contains("3000000000"));
        let e = GraphError::io(
            "reading shard 3",
            &std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "truncated"),
        );
        assert!(e.to_string().contains("reading shard 3"));
        assert!(e.to_string().contains("truncated"));
        let e = GraphError::CorruptContainer {
            message: "walk-cache file: bad magic".into(),
        };
        assert_eq!(e.to_string(), "corrupt walk-cache file: bad magic");
    }
}
