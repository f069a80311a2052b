//! Degenerate-teleport coverage across the public scoring surface.
//!
//! The contract under test: a personalization that cannot define a
//! probability distribution — an empty seed set, an out-of-range seed, a
//! zero-mass / negative / non-finite prior — is a **typed error** at the
//! API boundary, never a NaN that surfaces ten iterations later. Spam
//! proximity is checked under both weightings, one seed set at a time and
//! in batches; graded priors at the `Teleport` layer, where an
//! *unnormalized but valid* prior is the documented fallback: it is
//! L1-normalized on entry, to exactly the distribution of its normalized
//! twin.

use sr_core::proximity::ProximityWeighting;
use sr_core::{PageRank, SpamProximity, Teleport, TeleportError};
use sr_graph::source_graph::{extract, SourceGraph, SourceGraphConfig};
use sr_graph::{CsrGraph, GraphBuilder, SourceAssignment};

/// 0 -> spam(3); 1 -> 0; 2 -> 1 (badness flows 3 -> 0 -> 1 -> 2 reversed).
fn chain() -> CsrGraph {
    GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 0), (2, 1)]).unwrap()
}

/// [`chain`] with every page its own source: 4 sources.
fn chain_sources() -> SourceGraph {
    extract(
        &chain(),
        &SourceAssignment::identity(4),
        SourceGraphConfig::consensus(),
    )
    .unwrap()
}

/// A 3-source page graph: source 0 (pages 0..2) links source 2's page 4;
/// source 1 (pages 2..4) links source 0; source 2 (pages 4..6) is a farm.
fn source_fixture() -> SourceGraph {
    let edges = vec![(0u32, 4u32), (1, 4), (2, 0), (3, 1), (4, 5), (5, 4)];
    let g = GraphBuilder::from_edges_exact(6, edges).unwrap();
    let a = SourceAssignment::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
    extract(&g, &a, SourceGraphConfig::consensus()).unwrap()
}

fn uniform() -> SpamProximity {
    SpamProximity::new().weighting(ProximityWeighting::Uniform)
}

// --- empty seed sets ------------------------------------------------------

#[test]
fn empty_seeds_rejected_everywhere() {
    let sg = source_fixture();
    let prox = SpamProximity::new();
    assert_eq!(
        prox.scores(&sg, &[]).unwrap_err(),
        TeleportError::EmptySeeds
    );
    assert_eq!(
        uniform().scores(&chain_sources(), &[]).unwrap_err(),
        TeleportError::EmptySeeds
    );
    assert_eq!(
        prox.throttle_top_k(&sg, &[], 2).unwrap_err(),
        TeleportError::EmptySeeds
    );
}

#[test]
fn empty_seed_query_fails_the_whole_batch() {
    let sg = source_fixture();
    let seed_sets = [vec![2], vec![]];
    assert_eq!(
        SpamProximity::new()
            .scores_batch(&sg, &seed_sets)
            .unwrap_err(),
        TeleportError::EmptySeeds
    );
}

// --- out-of-range seeds ---------------------------------------------------

#[test]
fn out_of_range_seeds_are_typed_errors() {
    let sg = source_fixture();
    let prox = SpamProximity::new();
    assert_eq!(
        prox.scores(&sg, &[3]).unwrap_err(),
        TeleportError::SeedOutOfRange {
            seed: 3,
            num_nodes: 3
        }
    );
    assert_eq!(
        uniform().scores(&chain_sources(), &[9]).unwrap_err(),
        TeleportError::SeedOutOfRange {
            seed: 9,
            num_nodes: 4
        }
    );
    assert_eq!(
        prox.scores_batch(&sg, &[vec![0, 7]]).unwrap_err(),
        TeleportError::SeedOutOfRange {
            seed: 7,
            num_nodes: 3
        }
    );
}

// --- duplicate seeds ------------------------------------------------------

/// A duplicate seed id in a wire request must be a typed error. Silently
/// collapsing it (set semantics) would renormalize the teleport to the
/// *distinct* seed count — a different distribution than the caller asked
/// for — and silently throttle the wrong mass.
#[test]
fn duplicate_seeds_are_typed_errors() {
    let sg = source_fixture();
    let prox = SpamProximity::new();
    assert_eq!(
        prox.scores(&sg, &[2, 2]).unwrap_err(),
        TeleportError::DuplicateSeed { seed: 2 }
    );
    assert_eq!(
        uniform().scores(&chain_sources(), &[1, 3, 1]).unwrap_err(),
        TeleportError::DuplicateSeed { seed: 1 }
    );
    assert_eq!(
        prox.scores_batch(&sg, &[vec![0, 1, 0]]).unwrap_err(),
        TeleportError::DuplicateSeed { seed: 0 }
    );
    assert_eq!(
        prox.throttle_top_k(&sg, &[2, 2], 1).unwrap_err(),
        TeleportError::DuplicateSeed { seed: 2 }
    );
    assert_eq!(
        Teleport::try_over_seeds(4, &[3, 3]),
        Err(TeleportError::DuplicateSeed { seed: 3 })
    );
}

// --- the same guarantees at the Teleport layer ----------------------------

#[test]
fn teleport_constructors_reject_degenerates() {
    assert_eq!(
        Teleport::try_over_seeds(4, &[]),
        Err(TeleportError::EmptySeeds)
    );
    assert_eq!(
        Teleport::try_over_seeds(4, &[4]),
        Err(TeleportError::SeedOutOfRange {
            seed: 4,
            num_nodes: 4
        })
    );
    assert_eq!(
        Teleport::try_from_weights(vec![0.0; 3]),
        Err(TeleportError::ZeroMass)
    );
    for (prior, index) in [
        (vec![1.0, f64::NEG_INFINITY], 1),
        (vec![0.5, -1.0, 0.5], 1),
        (vec![0.5, 0.5, f64::NAN], 2),
        (vec![f64::INFINITY, 0.5, 0.5], 0),
    ] {
        assert_eq!(
            Teleport::try_from_weights(prior),
            Err(TeleportError::InvalidWeight { index })
        );
    }
}

/// The documented fallback: a valid prior that merely doesn't sum to one
/// is normalized on entry. A 4x-scaled prior (power of two, so the
/// normalized distribution is bit-identical) gives the same teleport.
#[test]
fn unnormalized_prior_is_normalized_not_propagated() {
    let unit = Teleport::try_from_weights(vec![0.1, 0.2, 0.7]).unwrap();
    let scaled = Teleport::try_from_weights(vec![0.4, 0.8, 2.8]).unwrap();
    assert_eq!(unit, scaled);
}

/// A solver fed a *valid* seed teleport over a graph where the seeds are
/// dangling must still produce finite scores — the dangling redistribution
/// path, not NaN, absorbs the lost mass.
#[test]
fn seed_teleport_on_dangling_seeds_stays_finite() {
    // Node 3 is dangling and is also the only seed.
    let g = chain();
    let pr = PageRank::builder()
        .teleport(Teleport::over_seeds(4, &[3]))
        .finish();
    let r = pr.rank(&g);
    assert!(r.scores().iter().all(|s| s.is_finite()));
    let total: f64 = r.scores().iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "mass must stay normalized, got {total}"
    );
}
