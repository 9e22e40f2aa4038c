// Block chaining: Lemma 7 of the paper, generalized.
//
// Given an R_4 (a super-ring of S_4 blocks), thread a healthy path
// through every block — Hamiltonian for healthy blocks, 2 vertices
// short per fault for faulty blocks — and splice consecutive paths with
// super-edge crossings into one healthy ring.  The longest-path
// extension runs the same search on an open chain (ChainEnds): one
// backtracking loop threads blocks 0..m-1 from a given entry of block 0
// to a forced exit of block m-1; a ring tries every healthy crossing of
// its closing super-edge as that (entry, exit) pair, an open chain the
// one pair (s, t).
//
// The entry of block k+1 is forced by the exit chosen in block k: an
// exit y (a healthy member whose position-0 symbol equals the symbol
// the next block fixes at the dif position) crosses to the member
// y.star_move(dif) of the next block.  Parity bookkeeping is implicit:
// every per-block vertex target is even, so each path uses an odd
// number of edges; every chain entry therefore has the parity of the
// closure vertex x0 = partner(y_last), and since x0 and y_last are
// themselves parity-opposite neighbours, the cyclic closure can never
// fail on parity alone (the bipartite obstruction the paper handles
// with Lemmas 5/6 and the odd-ring contradiction argument).
//
// The per-fault loss inside a block is a parameter: 2 reproduces the
// paper (Lemma 4: a healthy 22-vertex path exists through a block with
// one fault), 4 reproduces the weaker per-fault guarantee of the
// Tseng-Chang-Sheu baseline within the same framework.
#pragma once

#include <optional>
#include <span>

#include "core/ring_embedder.hpp"
#include "core/super_ring.hpp"

namespace starring {

/// Thread and splice the block chain `sr` into a healthy ring (cyclic
/// `ends`) or a healthy s-t path (open `ends`; the returned `ring`
/// field then holds the open vertex sequence from s to t).
/// `per_fault_loss` must be even (ring parity); it is the number of
/// vertices dropped from a block per vertex fault inside it.
/// `ends.short_block`, if in [0, m), takes one more vertex off that
/// block (open chains only: the parity correction when s and t share a
/// partite set).  `excise`, if given, is a substar pattern whose members
/// all lie in one block of `sr`: those vertices are skipped outright
/// (the Latifi–Bagherzadeh mechanism for an enclosing substar smaller
/// than a block).  Returns nullopt when the search exhausts every end
/// pair or the backtrack budget.
std::optional<EmbedResult> chain_blocks(const StarGraph& g,
                                        const SuperRing& sr,
                                        const FaultSet& faults,
                                        const EmbedOptions& opts,
                                        const ChainEnds& ends,
                                        int per_fault_loss = 2,
                                        const SubstarPattern* excise = nullptr);

/// The cyclic chain: chain_blocks with ChainEnds{}.
inline std::optional<EmbedResult> chain_block_ring(
    const StarGraph& g, const SuperRing& sr, const FaultSet& faults,
    const EmbedOptions& opts, int per_fault_loss = 2,
    const SubstarPattern* excise = nullptr) {
  return chain_blocks(g, sr, faults, opts, {}, per_fault_loss, excise);
}

/// The build -> chain restart loop every embedder shares.  Restart r
/// (r < max(1, opts.max_restarts)) builds the block chain of `g` through
/// `positions` at rotation r (build_block_chain, under the `super_ring`
/// phase and span) and chains it (chain_blocks); the first success is
/// returned with stats.restarts = r.  An open chain whose endpoints
/// share a partite set tries up to six short blocks per restart —
/// healthy blocks away from the endpoints, else the last block
/// (`ends.short_block` is chosen here, not read).  `exclude` goes to the builder and `excise` to the
/// chain (the two Latifi mechanisms).  Stops with nullopt once
/// opts.cancel is set.
std::optional<EmbedResult> build_and_chain(
    const StarGraph& g, std::span<const int> positions, const FaultSet& faults,
    const EmbedOptions& opts, ChainEnds ends = {}, int per_fault_loss = 2,
    const SubstarPattern* exclude = nullptr,
    const SubstarPattern* excise = nullptr);

}  // namespace starring
