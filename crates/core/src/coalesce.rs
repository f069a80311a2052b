//! Deterministic panel packing for coalesced personalized queries.
//!
//! The serving engine's exact slow path gathers concurrent personalized-PPR
//! requests and solves them as one K-column [`crate::SolveRequest`] (one
//! SpMM panel) instead of K sequential single-vector solves. The
//! *admission* policy (deadline-or-K) lives in the server; this module owns
//! the part that must be bit-deterministic: given whatever set of queries
//! was admitted, produce the same panels in the same packing order no
//! matter how the requests interleaved on arrival and no matter how many
//! handler threads enqueued them.
//!
//! The canonical order is lexicographic by seed set, tie-broken by ticket —
//! a pure function of the admitted set. Combined with the solve driver's
//! thread-count invariance, per-query scores are bitwise reproducible: the
//! 1-vs-8-thread determinism suite pins this end to end.

use sr_graph::NodeId;

use crate::power::SolveColumn;
use crate::teleport::{Teleport, TeleportError};

/// One admitted personalized query: a validated seed set plus the monotone
/// admission ticket the server assigned it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelQuery {
    /// Monotone admission ticket (unique per query).
    pub ticket: u64,
    /// Teleport seed set (validated against the serving graph on entry).
    pub seeds: Vec<NodeId>,
}

/// Packs `queries` into panels of at most `panel_k` columns, in canonical
/// order: sort by `(seeds, ticket)` lexicographically, then chunk. The
/// result is a pure function of the query *set* — arrival order never
/// changes the packing.
///
/// # Panics
/// Panics if `panel_k == 0`.
pub fn pack_panels(mut queries: Vec<PanelQuery>, panel_k: usize) -> Vec<Vec<PanelQuery>> {
    assert!(panel_k >= 1, "panel width must be at least 1");
    queries.sort_unstable_by(|a, b| a.seeds.cmp(&b.seeds).then(a.ticket.cmp(&b.ticket)));
    let mut panels = Vec::with_capacity(queries.len().div_ceil(panel_k));
    let mut panel = Vec::with_capacity(panel_k);
    for q in queries {
        panel.push(q);
        if panel.len() == panel_k {
            panels.push(std::mem::replace(&mut panel, Vec::with_capacity(panel_k)));
        }
    }
    if !panel.is_empty() {
        panels.push(panel);
    }
    panels
}

/// Builds the solver columns of one packed panel: a seed teleport per query
/// at the shared `alpha`, over an `n`-node graph. Seed-set validation is
/// expected to have happened at admission; a failure here still surfaces as
/// the typed error rather than a panic.
pub fn panel_columns(
    panel: &[PanelQuery],
    alpha: f64,
    n: usize,
) -> Result<Vec<SolveColumn>, TeleportError> {
    panel
        .iter()
        .map(|q| {
            Ok(SolveColumn::new(
                alpha,
                Teleport::try_over_seeds(n, &q.seeds)?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(ticket: u64, seeds: &[NodeId]) -> PanelQuery {
        PanelQuery {
            ticket,
            seeds: seeds.to_vec(),
        }
    }

    #[test]
    fn packing_is_arrival_order_invariant() {
        let a = vec![q(3, &[5]), q(1, &[2, 7]), q(2, &[0]), q(0, &[2, 3])];
        let mut b = a.clone();
        b.reverse();
        let pa = pack_panels(a, 2);
        let pb = pack_panels(b, 2);
        assert_eq!(pa, pb);
        // Canonical order: [0], [2,3], [2,7], [5].
        let flat: Vec<&PanelQuery> = pa.iter().flatten().collect();
        assert_eq!(flat[0].seeds, vec![0]);
        assert_eq!(flat[1].seeds, vec![2, 3]);
        assert_eq!(flat[2].seeds, vec![2, 7]);
        assert_eq!(flat[3].seeds, vec![5]);
        assert_eq!(pa.len(), 2);
        assert!(pa.iter().all(|p| p.len() == 2), "fixed fan-out panels");
    }

    #[test]
    fn ticket_breaks_seed_ties_deterministically() {
        let a = vec![q(9, &[1]), q(4, &[1])];
        let packed = pack_panels(a, 8);
        assert_eq!(packed[0][0].ticket, 4);
        assert_eq!(packed[0][1].ticket, 9);
    }

    #[test]
    fn last_panel_may_be_partial() {
        let qs = (0..5).map(|t| q(t, &[t as u32])).collect();
        let panels = pack_panels(qs, 2);
        assert_eq!(panels.len(), 3);
        assert_eq!(panels[2].len(), 1);
    }

    #[test]
    fn columns_surface_seed_errors_typed() {
        let panel = vec![q(0, &[99])];
        assert!(matches!(
            panel_columns(&panel, 0.85, 4),
            Err(TeleportError::SeedOutOfRange { .. })
        ));
        let ok = panel_columns(&[q(0, &[1, 3])], 0.85, 4).unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].alpha, 0.85);
    }
}
