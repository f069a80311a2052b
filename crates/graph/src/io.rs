//! Graph and assignment text serialization.
//!
//! The **text edge list** — one `src<TAB>dst` pair per line — is the
//! lingua franca of Web-graph datasets (what WebBase/UbiCrawler dumps look
//! like after decompression); page→source assignments get a text format of
//! their own. Binary files (shards, walk caches) go through the segment
//! container instead (see [`crate::ShardedCompressedGraph`]).
//!
//! All readers validate their input and fail with typed errors rather than
//! panicking on malformed files.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::ids::NodeId;
use crate::source_map::SourceAssignment;

/// Errors from graph I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structured parse failure with line number (1-based) and message.
    Parse {
        /// Line where the problem was found.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The input parsed but describes an invalid structure.
    Corrupt(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Corrupt(m) => write!(f, "corrupt input: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes `graph` as a text edge list (`src\tdst` per line). Lines appear
/// in ascending `(src, dst)` order, so the output is canonical.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, out: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(out);
    for (u, v) in graph.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a text edge list. Empty lines and lines starting with `#` are
/// skipped. `num_nodes` may exceed the largest endpoint (isolated tail
/// nodes); pass `None` to infer it.
pub fn read_edge_list<R: Read>(input: R, num_nodes: Option<usize>) -> Result<CsrGraph, IoError> {
    let mut builder = match num_nodes {
        Some(n) => GraphBuilder::with_nodes(n),
        None => GraphBuilder::new(),
    };
    let reader = BufReader::new(input);
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<NodeId, IoError> {
            tok.ok_or_else(|| IoError::Parse {
                line: line_no,
                message: format!("missing {what}"),
            })?
            .parse::<NodeId>()
            .map_err(|e| IoError::Parse {
                line: line_no,
                message: format!("bad {what}: {e}"),
            })
        };
        let src = parse(parts.next(), "source id")?;
        let dst = parse(parts.next(), "target id")?;
        if let Some(extra) = parts.next() {
            return Err(IoError::Parse {
                line: line_no,
                message: format!("unexpected trailing token {extra:?}"),
            });
        }
        if let Some(n) = num_nodes {
            if src as usize >= n || dst as usize >= n {
                return Err(IoError::Parse {
                    line: line_no,
                    message: format!("edge ({src}, {dst}) out of range for {n} nodes"),
                });
            }
        }
        builder.add_edge(src, dst);
    }
    Ok(builder.build())
}

/// Writes an assignment as text: line `i` holds the source id of page `i`,
/// preceded by a `#sources <n>` header.
pub fn write_assignment<W: Write>(a: &SourceAssignment, out: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(out);
    writeln!(w, "#sources {}", a.num_sources())?;
    for &s in a.raw() {
        writeln!(w, "{s}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads an assignment written by [`write_assignment`].
pub fn read_assignment<R: Read>(input: R) -> Result<SourceAssignment, IoError> {
    let reader = BufReader::new(input);
    let mut lines = reader.lines().enumerate();
    let (_, header) = lines.next().ok_or(IoError::Parse {
        line: 1,
        message: "empty assignment file".into(),
    })?;
    let header = header?;
    let num_sources: usize = header
        .strip_prefix("#sources ")
        .ok_or_else(|| IoError::Parse {
            line: 1,
            message: format!("expected '#sources <n>' header, got {header:?}"),
        })?
        .trim()
        .parse()
        .map_err(|e| IoError::Parse {
            line: 1,
            message: format!("bad source count: {e}"),
        })?;
    let mut map = Vec::new();
    for (idx, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let s: NodeId = trimmed.parse().map_err(|e| IoError::Parse {
            line: idx + 1,
            message: format!("bad source id: {e}"),
        })?;
        map.push(s);
    }
    SourceAssignment::new(map, num_sources).map_err(|e| IoError::Corrupt(e.to_string()))
}

/// Convenience: write an edge list to a file path.
pub fn save_edge_list(graph: &CsrGraph, path: &Path) -> Result<(), IoError> {
    write_edge_list(graph, File::create(path)?)
}

/// Convenience: read an edge list from a file path.
pub fn load_edge_list(path: &Path, num_nodes: Option<usize>) -> Result<CsrGraph, IoError> {
    read_edge_list(File::open(path)?, num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        GraphBuilder::from_edges_exact(6, vec![(0, 1), (0, 5), (2, 3), (5, 0), (5, 5)]).unwrap()
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("0\t1"));
        let back = read_edge_list(&buf[..], Some(6)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn edge_list_skips_comments_and_blanks() {
        let text = "# header\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn edge_list_reports_line_numbers() {
        let text = "0 1\nbogus 2\n";
        match read_edge_list(text.as_bytes(), None) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_rejects_out_of_range_with_explicit_nodes() {
        let text = "0 9\n";
        assert!(matches!(
            read_edge_list(text.as_bytes(), Some(3)),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn edge_list_rejects_trailing_tokens() {
        let text = "0 1 extra\n";
        assert!(matches!(
            read_edge_list(text.as_bytes(), None),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn assignment_roundtrip() {
        let a = SourceAssignment::new(vec![0, 2, 1, 2], 3).unwrap();
        let mut buf = Vec::new();
        write_assignment(&a, &mut buf).unwrap();
        let back = read_assignment(&buf[..]).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn assignment_requires_header() {
        let res = read_assignment("0\n1\n".as_bytes());
        assert!(matches!(res, Err(IoError::Parse { line: 1, .. })));
    }

    #[test]
    fn file_based_helpers() {
        let dir = std::env::temp_dir().join("sr_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample();
        let p1 = dir.join("g.edges");
        save_edge_list(&g, &p1).unwrap();
        assert_eq!(load_edge_list(&p1, None).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }
}
