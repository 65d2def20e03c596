// optcm — the causal-order relation ↦co, recomputed from a history.
//
// Paper Section 2: o₁ ↦co o₂ iff (process order) ∨ (read-from) ∨ (transitive
// closure of the two).  We build the DAG whose edges are consecutive
// program-order pairs plus write→read ↦ro pairs, then take the transitive
// closure over a packed bit-matrix.  If the recorded relation is cyclic the
// input is not a history at all (↦co must be a partial order) and build()
// reports it.
//
// This module is the *oracle* side of the repository: protocols never call
// it; tests, the checker and the optimality auditor use it to judge protocol
// behaviour independently.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsm/common/bitmatrix.h"
#include "dsm/history/history.h"

namespace dsm {

class CoRelation {
 public:
  /// Computes ↦co for `h`.  Returns std::nullopt if the recorded relation is
  /// cyclic (then `h` is not a valid history).  `h` must outlive the result.
  [[nodiscard]] static std::optional<CoRelation> build(const GlobalHistory& h);

  /// a ↦co b (strict: an operation is not in its own causal past).
  [[nodiscard]] bool precedes(OpRef a, OpRef b) const noexcept;

  /// a ‖co b.
  [[nodiscard]] bool concurrent(OpRef a, OpRef b) const noexcept;

  /// ↓(o, ↦co) — the causal past of `o`, ascending OpRefs.
  [[nodiscard]] std::vector<OpRef> causal_past(OpRef o) const;

  /// Writes in ↓(o, ↦co): the set whose applies form X_co-safe(apply_k(o))
  /// when o is a write (paper Definition 4).
  [[nodiscard]] std::vector<OpRef> write_causal_past(OpRef o) const;

  /// w ↦co w' for two *writes* identified by WriteId.  Both must exist in the
  /// underlying history.
  [[nodiscard]] bool write_precedes(WriteId w, WriteId w2) const;

  /// w ‖co w' for two writes.
  [[nodiscard]] bool write_concurrent(WriteId w, WriteId w2) const;

  /// The operations `o` precedes, as packed words over OpRefs: bit b%64 of
  /// word b/64 is set iff o ↦co b.  Bulk readers (the optimality auditor)
  /// AND it with their own OpRef-indexed sets.
  [[nodiscard]] std::span<const std::uint64_t> row(OpRef o) const noexcept {
    return reach_.row(o);
  }

  /// |↓(o, ↦co)|.
  [[nodiscard]] std::size_t causal_past_size(OpRef o) const noexcept;

  [[nodiscard]] const GlobalHistory& history() const noexcept { return *h_; }

 private:
  explicit CoRelation(const GlobalHistory& h) : h_(&h) {}

  const GlobalHistory* h_;
  BitMatrix reach_;  // reach_[a][b] == true ⇔ a ↦co b
};

}  // namespace dsm
