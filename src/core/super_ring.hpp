// Super-ring construction: Definitions 4-5 and Lemma 3 of the paper.
//
// An R_r is a ring of r-vertices (embedded S_r patterns) in which
// consecutive patterns are adjacent (differ in one fixed position).
// The construction starts from the a_1-partition of S_n — whose n
// children form a complete graph K_n of (n-1)-vertices, so any cyclic
// order is an R_{n-1} — and refines level by level: an a_j-partition
// turns each r-vertex of the current ring into a complete graph K_r of
// (r-1)-vertices, a Hamiltonian path is threaded through each K_r from
// an entry child (attached to the previous ring element's exit) to an
// exit child (attached to the next element's entry), and the paths
// interleaved with the connecting super-edges form the R_{r-1}
// (Lemma 3's interleaving step).
//
// The longest-path extension refines an open chain with the same code
// (ChainEnds below): m-1 connectors instead of m, and the two outer path
// ends forced to the children holding s and t instead of being joined
// by a wraparound connector.
//
// Child adjacency across a ring edge (Lemma 1's mechanism): if A and B
// are consecutive with dif position p, A fixing symbol a and B fixing
// symbol b at p, then child(A, q) at the new position is adjacent to
// child(B, q) exactly when q differs from both a and b; the two
// non-adjacent leftovers are child(A, b) and child(B, a).  Hence the
// connector symbol c_k chosen between ring elements k and k+1 must avoid
// b_k, and the entry/exit children of one element must differ
// (c_k != c_{k-1}).
//
// Fault awareness (the paper's properties P1/P3): partition positions
// from Lemma 2 guarantee P1 (each final block has at most one fault);
// this builder additionally orders children inside each K_r path so that
// fault-containing children sit away from the path ends and away from
// each other whenever possible, which realizes P3 (no two consecutive
// faulty blocks) for every fault population the theorem admits.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "stargraph/substar.hpp"

namespace starring {

struct SuperRing {
  /// Patterns in chain order; consecutive ones are adjacent, and so are
  /// last and first unless the chain was built open.  All patterns have
  /// the same r.
  std::vector<SubstarPattern> ring;

  int r() const { return ring.empty() ? 0 : ring.front().r(); }
};

/// The endpoint policy of a block chain — the one thing that separates
/// the paper's ring from the longest-path extension's s-t path:
///   * cyclic (s, t unset): the last block is adjacent to the first and
///     the chaining search closes the ring through that super-edge;
///   * open from s to t: the first block holds s, the last holds t, no
///     wraparound edge, and `short_block`, if in [0, m), gives up one
///     vertex — the parity correction when s and t lie in the same
///     partite set.
struct ChainEnds {
  std::optional<Perm> s;
  std::optional<Perm> t;
  int short_block = -1;

  bool open() const { return s.has_value(); }
};

/// Build the R_4 of S_n by refining through `positions` (from
/// select_partition_positions; size n-4, n >= 5).  Faults steer the
/// child orderings (P3); pass an empty FaultSet for the fault-free ring.
/// `rotation` offsets the initial K_n ordering — callers use different
/// rotations as restart diversification.
///
/// Open `ends` give the linear variant: a sequence of all n!/24 blocks
/// whose first block contains s and last contains t.  Precondition:
/// positions[0] is a position where s and t differ (so they start in
/// different first-level children and the endpoint invariant can be
/// pushed down every level).  Every level runs the same refinement;
/// only the first-level order (s's child first, t's child last) and the
/// forced outer path ends differ.
///
/// `exclude` (cyclic chains), if given, is a pattern reachable through
/// `positions` (its fixed positions are position[0..n-1-r(exclude)]-
/// compatible); the builder drops it — and with it all its blocks —
/// from the ring while keeping consecutive adjacency, by forcing it into
/// the middle of its parent's K_r path.  This is the mechanism behind
/// the Latifi–Bagherzadeh n!-m! baseline (excise the substar holding all
/// faults).  Returns nullopt only if the internal connector-choice
/// system is infeasible (never in the guarantee regime; asserted in
/// debug builds).
std::optional<SuperRing> build_block_chain(int n, std::span<const int> positions,
                                           const FaultSet& faults,
                                           const ChainEnds& ends,
                                           int rotation = 0,
                                           const SubstarPattern* exclude = nullptr);

/// The cyclic chain: build_block_chain with ChainEnds{}.
inline std::optional<SuperRing> build_block_ring(
    int n, std::span<const int> positions, const FaultSet& faults,
    int rotation = 0, const SubstarPattern* exclude = nullptr) {
  return build_block_chain(n, positions, faults, {}, rotation, exclude);
}

/// Validity check used by tests: all patterns distinct, consecutive
/// ones adjacent (and last/first too for a cyclic chain), together
/// covering n! - missing_vertices vertices (missing_vertices = m! when
/// an S_m was excluded, else 0); an open chain's first block must hold
/// s and its last t.
bool is_valid_super_ring(int n, const SuperRing& sr,
                         std::uint64_t missing_vertices = 0,
                         const ChainEnds& ends = {});

/// Number of vertex faults of `faults` lying inside `p`.
int faults_in_pattern(const SubstarPattern& p, const FaultSet& faults);

}  // namespace starring
