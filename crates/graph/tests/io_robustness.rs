//! Corrupt-input robustness of the `sr_graph::io` text readers.
//!
//! Every reader must hold one contract on hostile input: return a typed
//! [`IoError`] — or a structurally valid graph, when the input happens to
//! parse — and **never panic or abort**. Proptest drives the mutations:
//! random bytes and malformed edge-list/assignment text. The binary files
//! have their own suite (`segment_container.rs`).

use proptest::prelude::*;
use sr_graph::io::{self, IoError};
use sr_graph::{CsrGraph, GraphBuilder};

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..300)
            .prop_map(move |edges| GraphBuilder::from_edges_exact(n as usize, edges).unwrap())
    })
}

/// The only acceptable outcomes for a mutated input.
fn assert_clean(res: Result<CsrGraph, IoError>) {
    match res {
        // The mutation happened to decode to some valid graph — fine; the
        // contract is "no panic, no lie about validity", not "detect every
        // flip" (a flipped target id can still be a well-formed stream).
        Ok(g) => {
            // Whatever came back must at least be internally consistent.
            let edges: usize = (0..g.num_nodes() as u32).map(|u| g.out_degree(u)).sum();
            assert_eq!(edges, g.num_edges());
        }
        Err(IoError::Io(_)) | Err(IoError::Corrupt(_)) | Err(IoError::Parse { .. }) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_never_panic_edge_list_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        assert_clean(io::read_edge_list(&bytes[..], None));
    }

    #[test]
    fn random_bytes_never_panic_assignment_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        match io::read_assignment(&bytes[..]) {
            Ok(_) | Err(IoError::Io(_)) | Err(IoError::Corrupt(_)) | Err(IoError::Parse { .. }) => {}
        }
    }

    #[test]
    fn malformed_edge_line_is_located(
        g in arb_graph(),
        pos in any::<usize>(),
        junk in "[a-z!,;]{1,10}",
    ) {
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let mut lines: Vec<String> = String::from_utf8(buf).unwrap()
            .lines().map(str::to_string).collect();
        let at = pos % (lines.len() + 1);
        lines.insert(at, format!("{junk} {junk}"));
        let text = lines.join("\n");
        match io::read_edge_list(text.as_bytes(), None) {
            Err(IoError::Parse { line, message }) => {
                prop_assert_eq!(line, at + 1, "wrong line for {}", &message);
                prop_assert!(message.contains("source id"), "message {:?}", &message);
            }
            other => prop_assert!(false, "junk line accepted: {other:?}"),
        }
    }

    #[test]
    fn edge_list_roundtrip_survives_whitespace_noise(g in arb_graph()) {
        // Canonical output decorated with blanks and comments must parse
        // back to the identical graph.
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let noisy: String = String::from_utf8(buf).unwrap()
            .lines()
            .flat_map(|l| ["# noise".to_string(), String::new(), format!("  {l}  ")])
            .collect::<Vec<_>>()
            .join("\n");
        let back = io::read_edge_list(noisy.as_bytes(), Some(g.num_nodes())).unwrap();
        prop_assert_eq!(back, g);
    }
}
