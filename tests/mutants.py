"""Mutation gate: named source edits that the test suite must catch.

Each mutant is one edit to a file under ``src/quasiring``.  The script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, runs every named test there once unmutated (they must pass),
then applies each edit in turn and runs the tests named for it.  A mutant
is killed when those tests fail.

It exits 1 when a mutant survives, when an edit no longer matches the
source exactly once, or when the named tests fail unmutated.  Run it as
``python tests/mutants.py``.

Standard library only; each run is ``python -m pytest`` in a subprocess,
so pytest must be importable.  It is not a test module, so the tier-1
suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str            # under src/quasiring
    old: str             # must occur exactly once in the file
    new: str
    tests: tuple         # pytest node ids, relative to the repository root


IDEALS = "tests/test_ideals.py"
TOPOLOGY = "tests/test_topology.py"
FUNCSPACE = "tests/test_funcspace.py"
CLI = "tests/test_cli.py"
ZARISKI = "tests/test_zariski.py"
FAMILY = f"{IDEALS}::test_family_sets_incidence"
GREEN = "tests/test_checkers.py::test_green_suite_on_fixed_instances"
CHI_INDEX = "tests/test_context.py::test_chi_index_is_the_index_of_chi"
DECODE = "tests/test_context.py::test_elements_decode_in_product_order"
ZERO_CLASSES = "tests/test_context.py::test_zero_classes_match_the_value_tuples"
PLAIN_SCAN = f"{IDEALS}::test_pruned_subset_scan_matches_a_plain_scan"
CLASSIFY = f"{IDEALS}::test_classification_matches_the_definitions"
WITNESS = f"{IDEALS}::test_prime_witness_is_the_least_pair"
INVENTORIES = f"{IDEALS}::test_multiplicative_inventories_past_the_subset_scan"
RING_INVENTORIES = f"{IDEALS}::test_ring_mode_lattices_past_the_subset_scan"
PRODUCT = f"{IDEALS}::test_ideal_lattice_matches_the_enumerated_lattice"
TAKE = f"{IDEALS}::test_take_decodes_a_bitset_as_indexing_does"
PRINCIPALS = f"{IDEALS}::test_principal_table_matches_per_element_closure"
REACH = f"{IDEALS}::test_reach_matches_a_search_of_the_absorbing_rows"
LOCKSTEP = f"{IDEALS}::test_reach_moves_the_classes_in_lockstep"
RELATION_CAP = f"{IDEALS}::test_reach_relations_past_the_cap_are_refused"
SUMSET = f"{IDEALS}::test_sumset_lattices_match_the_join_lattices"
SUMSET_GATE = f"{IDEALS}::test_a_noncommutative_addition_joins_by_closure"
JOIN = f"{IDEALS}::test_join_matches_closure_of_the_union"
SPAN = f"{IDEALS}::test_span_is_the_additive_closure"
PLANTED = "tests/test_planted_reports.py::test_planted_reports_match_the_golden"
ONCE = "tests/test_checkers.py::test_bodies_run_once_per_context"
ONE_SIDED_UNIT = ("tests/test_checkers.py::"
                  "test_every_checker_reports_under_a_one_sided_unit")
ZERO_LAWS = "tests/test_algebra.py::test_make_table_rejects_a_one_sided_zero"
VANISHING = "tests/test_context.py::test_vanishing_bitsets_match_the_definition"
TZ_SPACE = f"{TOPOLOGY}::test_zero_set_space_matches_the_closed_family_reference"
FAMILY_ORDERS = f"{TOPOLOGY}::test_family_orders_match_sort_family"
GOLDENS = "tests/test_cli_goldens.py"
CHECK_GOLDEN = f"{GOLDENS}::test_cli_matches_the_golden[check-discrete_zmod]"
LATTICE_KEY = f"{IDEALS}::test_lattice_key_orders_as_the_member_lists"
TABLE_ROWS = f"{FUNCSPACE}::test_table_rows_match_tuple_arithmetic"
SHARED_CORE = f"{FUNCSPACE}::test_rings_over_the_same_y_and_q_share_one_core"
ZERO_CLASS_CAP = f"{FUNCSPACE}::test_zero_class_tables_stay_within_the_cap"
ONE_CORE_LATTICE = ("tests/test_context.py::"
                    "test_contexts_over_one_core_read_one_lattice_build")
CHARGED = "tests/test_context.py::test_every_kept_value_is_charged_within_the_cap"
ONE_BUILD = ("tests/test_context.py::"
             "test_a_refusing_cap_costs_one_build_per_context")
SECOND_CALL = f"{IDEALS}::test_a_second_call_returns_the_kept_lattice"
REBUILT = f"{IDEALS}::test_a_refused_lattice_is_built_and_checked_again"
PASS_AFTER_PRODUCTS = ("tests/test_context.py::"
                       "test_a_context_reads_the_pass_after_the_products")

MUTANTS = [
    # -- the χ_U ∈ I incidence ----------------------------------------------
    Mutant("family-U-from-complement-chi", "ideals.py",
           "_transpose([held[x] for x in chi],",
           "_transpose([held[x] for x in reversed(chi)],",
           (FAMILY, GREEN)),
    Mutant("family-complement-off-by-one-class", "verify/checkers.py",
           "bitset(ctx.all_classes ^ c for c in members(family))",
           "bitset(ctx.all_classes >> 1 ^ c for c in members(family))",
           (GREEN,)),
    Mutant("family-P-without-whole-ring", "ideals.py",
           "ends = (1 << ring.index(ring.theta), (1 << len(ring.elements)) - 1)",
           "ends = (1 << ring.index(ring.theta),)",
           (FAMILY, GREEN)),
    Mutant("family-X-through-wrong-chi", "verify/checkers.py",
           "bitset(fam.chi[c] for c in members(u))",
           "bitset(fam.chi[c ^ 1] for c in members(u))",
           (GREEN,)),

    # -- the ideal core ---------------------------------------------------
    Mutant("closure-one-summing-order", "ideals.py",
           'for op in ("add", "add_t"):', 'for op in ("add",):',
           (f"{IDEALS}::test_generate_ideal_is_the_least_ideal_of_the_subset_scan",)),
    Mutant("closure-sides-swapped", "ideals.py",
           'return {RIGHT: ("mul_t",), LEFT: ("mul",),',
           'return {RIGHT: ("mul",), LEFT: ("mul_t",),',
           (f"{IDEALS}::test_subset_scan_matches_the_ideal_laws",)),
    Mutant("primality-scan-skips-first", "ideals.py",
           "    for f in outside:\n", "    for f in outside[1:]:\n",
           (WITNESS,)),
    Mutant("min-max-scan-direction", "ideals.py",
           "(b & o == b) if grow else (b & o == o)",
           "(b & o == o) if grow else (b & o == b)",
           (CLASSIFY,)),
    Mutant("lattice-key-tie-break-not-negated", "sets.py",
           "(low - rev)", "rev",
           (LATTICE_KEY,)),
    Mutant("lattice-key-shift-dropped", "sets.py",
           '"big") >> shift', '"big")',
           (LATTICE_KEY,)),
    Mutant("lattice-key-shift-one-short", "sets.py",
           "shift, low = 8 * width - n,", "shift, low = 8 * width - n - 1,",
           (LATTICE_KEY,)),
    Mutant("subset-scan-addition-all-for-any", "ideals.py",
           "if all(mask >> sums[a][b] & 1", "if any(mask >> sums[a][b] & 1",
           (f"{IDEALS}::test_subset_scan_matches_the_ideal_laws",)),

    # -- one principal table, ring-mode joins as additive spans -----------
    Mutant("span-skips-its-last-generator", "ideals.py",
           "            for r in rows:\n", "            for r in rows[:-1]:\n",
           (SPAN,)),
    Mutant("span-hypothesis-forced-true", "ideals.py",
           "return flags.additive_associative and distributes", "return True",
           (PRINCIPALS, JOIN)),
    Mutant("context-join-skips-absorption", "verify/context.py",
           "            b |= mult[x]\n", "            pass\n",
           (JOIN,)),
    Mutant("span-hypothesis-sides-swapped", "ideals.py",
           "{RIGHT: flags.left_distributive,\n"
           "                   LEFT: flags.right_distributive,",
           "{RIGHT: flags.right_distributive,\n"
           "                   LEFT: flags.left_distributive,",
           (PRINCIPALS,)),

    # -- one pass over the principals, primality off the lattice's columns -
    Mutant("lattice-skips-the-last-principal", "ideals.py",
           "    for p in principals:\n",
           "    for p in list(principals)[:-1]:\n",
           (INVENTORIES, RING_INVENTORIES)),
    Mutant("ring-lattice-joins-as-unions", "ideals.py",
           "joined[u] = combine(a, p)", "joined[u] = u",
           (RING_INVENTORIES,)),
    Mutant("lattice-budget-cut-one-short", "ideals.py",
           "budget + 1 - len(found)", "budget - len(found)",
           (f"{IDEALS}::test_lattice_budget_cut",
            f"{IDEALS}::test_ring_mode_lattice_budget_cut")),
    Mutant("columns-read-in-reverse", "ideals.py",
           "for i in range(width - 1, -1, -1)]", "for i in range(width)]",
           (f"{IDEALS}::test_lattice_columns_are_the_membership_transpose",)),
    Mutant("column-pass-drops-the-g-column", "ideals.py",
           "map(and_, lacks, products)",
           "map(and_, [everywhere] * len(lacks), products)",
           (CLASSIFY, INVENTORIES)),

    # -- the reach off Y's step relations, ring-mode joins as sumsets -----
    Mutant("reach-without-its-own-bit", "ideals.py",
           "reach = [1 << g for g in range(len(ring.elements))]",
           "reach = [0] * len(ring.elements)",
           (REACH,)),
    Mutant("two-sided-reach-with-one-step-relation", "ideals.py",
           "TWO_SIDED: (right, left)}[side]", "TWO_SIDED: (right,)}[side]",
           (REACH,)),
    Mutant("step-relations-multiply-in-the-wrong-order", "ideals.py",
           "steps = {RIGHT: (right,), LEFT: (left,),",
           "steps = {RIGHT: (left,), LEFT: (right,),",
           (REACH, LOCKSTEP)),
    Mutant("product-class-weight-not-advanced", "ideals.py",
           "        weight *= m\n", "",
           (REACH, LOCKSTEP, PRODUCT)),
    Mutant("sumset-covered-test-inverted", "ideals.py",
           "if not out >> y & 1:", "if out >> y & 1:",
           (SUMSET,)),
    Mutant("sumset-gate-ignores-commutativity", "ideals.py",
           "if (mode == RING and span_applies(ring, side)\n"
           "            and structure_flags(ring.algebra)"
           ".additive_commutative):",
           "if mode == RING and span_applies(ring, side):",
           (SUMSET_GATE,)),
    Mutant("relation-cap-off-by-one", "ideals.py",
           "if len(found) > PRINCIPAL_TABLE_CAP:",
           "if len(found) >= PRINCIPAL_TABLE_CAP:",
           (RELATION_CAP,)),

    # -- ring-mode lattices as products of Y's lattice --------------------
    Mutant("split-gate-sides-swapped", "ideals.py",
           "law = {RIGHT: LEFT, LEFT: RIGHT}.get(side)",
           "law = {RIGHT: RIGHT, LEFT: LEFT}.get(side)",
           (PRODUCT,)),
    Mutant("split-gate-refuses-two-sided-ideals", "ideals.py",
           "return law is None or algebra.unit_side in (law, TWO_SIDED)",
           "return law is not None and algebra.unit_side in (law, TWO_SIDED)",
           (PRODUCT,)),
    Mutant("product-drops-a-class-digit", "ideals.py",
           "    for _ in ring.classes:\n", "    for _ in ring.classes[1:]:\n",
           (PRODUCT, RING_INVENTORIES)),
    Mutant("split-gate-ignores-the-table-cap", "ideals.py",
           "if (mode == RING and q >= 2 and n <= PRINCIPAL_TABLE_CAP\n"
           "            and splits(ring.algebra, side)):",
           "if (mode == RING and q >= 2\n"
           "            and splits(ring.algebra, side)):",
           (f"{IDEALS}::test_principal_table_past_its_cap_is_refused",)),
    Mutant("product-cross-check-dropped", "ideals.py",
           "if n <= 16 and set(products) != subset_scan(ring, side, RING):",
           "if False:",
           (f"{IDEALS}::test_lattice_oracle_disagreement_raises",)),

    # -- one kept lattice per Y^q core ------------------------------------
    Mutant("lattice-key-without-the-budget", "ideals.py",
           'ring.keep(("lattice", side, mode, budget),',
           'ring.keep(("lattice", side, mode),',
           (ONE_CORE_LATTICE, SECOND_CALL)),
    Mutant("products-kept-under-the-pass-key", "ideals.py",
           'ring.keep(("products", side),',
           'ring.keep(("lattice", side, RING, budget),',
           (PASS_AFTER_PRODUCTS,)),
    Mutant("lattice-pass-failure-not-kept", "ideals.py",
           "        return exc.with_traceback(None)\n",
           "        raise\n",
           (SECOND_CALL,)),
    Mutant("kept-pass-failure-raised-itself", "ideals.py",
           "raise type(lat)(*lat.args, cap=lat.cap, reached=lat.reached)",
           "raise lat",
           (SECOND_CALL,)),
    Mutant("lattice-pass-skips-its-subset-scan", "ideals.py",
           "    if complete and n <= 16:\n", "    if False:\n",
           (REBUILT,)),
    Mutant("lattice-charged-one-entry-per-ideal", "ideals.py",
           "else len(lat.ideals) * words)", "else len(lat.ideals))",
           (CHARGED,)),
    Mutant("classify-returns-an-unclassified-lattice", "ideals.py",
           "    if lattice.classified:\n        return lattice\n",
           "    if lattice.complete:\n        return lattice\n",
           (CLASSIFY,)),
    Mutant("family-sets-built-per-call", "ideals.py",
           "    return lattice.families\n", "    return _family_sets(lattice)\n",
           (SECOND_CALL,)),

    # -- the subset scan's half-reach pruning: one mutant per condition ---
    Mutant("scan-low-reach-into-low-dropped", "ideals.py",
           "            if not r & lo & ~l]", "            if True]",
           (PLAIN_SCAN,)),
    Mutant("scan-high-reach-into-high-dropped", "ideals.py",
           "if (r | zbit) >> half & ~h:", "if zbit >> half & ~h:",
           (PLAIN_SCAN,)),
    Mutant("scan-high-reach-into-low-dropped", "ideals.py",
           "need = (r | zbit) & lo", "need = zbit & lo",
           (PLAIN_SCAN,)),
    Mutant("scan-low-reach-into-high-dropped", "ideals.py",
           "if l & need == need and not up & ~h)", "if l & need == need)",
           (PLAIN_SCAN,)),
    Mutant("scan-theta-high-bit-ignored", "ideals.py",
           "if (r | zbit) >> half & ~h:", "if r >> half & ~h:",
           (PLAIN_SCAN,)),

    # -- spaces as minimal neighbourhoods ---------------------------------
    Mutant("nbhd-or-for-and", "topology.py", "u &= m", "u |= m",
           (f"{TOPOLOGY}::test_validate_topology_auto_close",)),
    Mutant("strict-union-test", "topology.py",
           "if a | b not in fam:", "if a & b not in fam:",
           (f"{TOPOLOGY}::test_strict_validation_matches_the_pairwise_scan",)),
    Mutant("quasi-masks-no-growth", "topology.py",
           "comp, before = self.nbhds[x], 0",
           "comp, before = self.nbhds[x], self.nbhds[x]",
           (f"{TOPOLOGY}::test_neighbourhood_topology_matches_pairwise_closure",)),
    Mutant("open-test-flipped", "topology.py",
           "if nbhds[low.bit_length() - 1] & outside:",
           "if m & ~nbhds[low.bit_length() - 1]:",
           (f"{TOPOLOGY}::test_neighbourhood_topology_matches_pairwise_closure",)),
    Mutant("is-closed-without-complement", "topology.py",
           "self._is_open_mask(((1 << self.point_count) - 1) & ~mask_of(s))",
           "self._is_open_mask(mask_of(s))",
           (f"{FUNCSPACE}::test_chi_tests_clopenness_against_the_clopen_masks",)),
    Mutant("t1-from-nbhds", "topology.py",
           "ExplicitSpace(space.point_count, space.quasi_masks)",
           "ExplicitSpace(space.point_count, space.nbhds)",
           (f"{TOPOLOGY}::test_clopen_base_topology_coarser_than_original",)),
    Mutant("open-witness-last", "topology.py",
           "return points_of(min(missing, key=mask_key(a.point_count)))",
           "return points_of(max(missing, key=mask_key(a.point_count)))",
           (f"{TOPOLOGY}::test_neighbourhood_topology_matches_pairwise_closure",)),
    Mutant("no-point-cap", "topology.py",
           "if point_count * point_count > DEFAULT_ENUM_BUDGET:",
           "if point_count > DEFAULT_ENUM_BUDGET:",
           (f"{TOPOLOGY}::test_discrete_space_past_the_budget_is_refused_up_front",)),
    Mutant("enumeration-budget-off-by-one", "topology.py",
           "if len(family) > DEFAULT_ENUM_BUDGET:",
           "if len(family) > DEFAULT_ENUM_BUDGET + 1:",
           (f"{TOPOLOGY}::test_open_family_past_the_budget_is_refused",)),
    Mutant("zero-set-masks-complemented", "zariski.py",
           "return {points[p] for p in _distinct_masks(",
           "return {points[~p] for p in _distinct_masks(",
           (f"{TOPOLOGY}::test_zariski_family_is_read_off_the_ring_elements",)),
    Mutant("distinct-masks-translate-delete-inverted", "zariski.py",
           "return ALL_BYTES.translate(None, ALL_BYTES.translate(None, ",
           "return ALL_BYTES.translate(None, (",
           (TZ_SPACE,)),

    # -- the zero-set topology and clopens on point masks ------------------
    Mutant("tz-indicator-identity-check-dropped", "zariski.py",
           'if ring.kept("zero_classes") is not table:', "if False:",
           (f"{ZARISKI}::test_tz_reads_the_zero_classes_it_is_given",)),
    Mutant("tz-indicator-not-kept", "zariski.py",
           'if ring.kept("zero_classes") is not table:', "if True:",
           (f"{ZARISKI}::test_rings_over_one_core_build_one_zero_indicator",)),
    Mutant("tz-class-nbhds-without-complement", "zariski.py",
           "nbhds_by_class.append(full & ~away)",
           "nbhds_by_class.append(full & away)",
           (TZ_SPACE,)),
    Mutant("tz-present-mask-left-unmarked", "zariski.py",
           "zero_classes, repeat(1)), 0)",
           "zero_classes, repeat(1, len(zero_classes) - 1)), 0)",
           (TZ_SPACE,)),
    Mutant("tz-flags-read-first-first", "zariski.py",
           "int(flags[::-1].translate(digits), 2)",
           "int(flags.translate(digits), 2)",
           (TZ_SPACE,)),
    Mutant("tz-holding-pattern-shifted-by-one-class", "zariski.py",
           "if missing_c & holding[d]:", "if missing_c & holding[d - 1]:",
           (TZ_SPACE,)),
    Mutant("clopen-doubling-drops-last-class", "topology.py",
           "    for q in classes:\n", "    for q in classes[:-1]:\n",
           (FAMILY_ORDERS,)),
    Mutant("clopen-key-reversal-sign-flipped", "topology.py",
           "key = (len(c) << n) - sum(", "key = (len(c) << n) + sum(",
           (FAMILY_ORDERS,)),
    Mutant("clopen-key-drops-the-size", "topology.py",
           "key = (len(c) << n) - sum(", "key = -sum(",
           (FAMILY_ORDERS,)),
    Mutant("clopen-key-drops-the-reversal", "topology.py",
           "key = (len(c) << n) - sum(1 << n - 1 - p for p in c)",
           "key = len(c) << n",
           (FAMILY_ORDERS,)),
    Mutant("zero-class-doubling-walked-forward", "funcspace.py",
           "for c in reversed(range(q)):", "for c in range(q):",
           (ZERO_CLASSES,)),
    Mutant("tz-away-from-the-masks-holding-c", "zariski.py",
           "missing_c = present & ~holding[c]",
           "missing_c = present & holding[c]",
           (TZ_SPACE,)),
    Mutant("shared-key-tie-break-sign-flipped", "sets.py",
           "(low - rev)", "(low + rev)",
           (FAMILY_ORDERS, GOLDENS)),

    # -- rings, χ_U and the context ---------------------------------------
    Mutant("kronecker-levels-swapped", "funcspace.py",
           "for row in rows for y_row in y_rows)",
           "for y_row in y_rows for row in rows)",
           (TABLE_ROWS,)),
    Mutant("kronecker-digits-swapped", "funcspace.py",
           "rows = ([a * m + b for a in row for b in y_row]",
           "rows = ([a * m + b for b in y_row for a in row]",
           (TABLE_ROWS,)),
    Mutant("table-cached-past-the-remaining-cap", "funcspace.py",
           "if core.entries + k > ROW_CACHE_ENTRIES:",
           "if k > ROW_CACHE_ENTRIES:",
           (f"{FUNCSPACE}::test_a_table_is_cached_only_while_it_fits",)),
    Mutant("lattice-failure-not-kept", "verify/context.py",
           "            return exc\n",
           "            raise\n",
           (ONE_BUILD,)),
    Mutant("families-keyed-by-side-and-mode", "verify/context.py",
           "return self.lattice.families",
           "return self.ring.keep((\"families\", self.side, self.mode),\n"
           "                              lambda: self.lattice.families,\n"
           "                              entries=lambda families: 0)",
           ("tests/test_context.py::"
            "test_a_planted_lattice_stays_out_of_the_shared_store",)),
    Mutant("single-rows-not-kept", "funcspace.py",
           "return self.keep((op, i), self._row, y_rows, i)",
           "return self._row(y_rows, i)",
           (f"{FUNCSPACE}::test_a_table_is_cached_only_while_it_fits",)),
    Mutant("core-count-bound-ignored", "funcspace.py",
           "if len(self.cores) > CORE_CACHE_SIZE:",
           "if len(self.cores) > 10 ** 9:",
           (f"{FUNCSPACE}::test_the_core_cache_keeps_64_cores",)),
    Mutant("cached-tables-past-the-shared-cap", "funcspace.py",
           "if self.entries + k <= ROW_CACHE_ENTRIES:",
           "if True:",
           (f"{FUNCSPACE}::test_the_cached_tables_stay_within_the_cap",)),
    Mutant("core-keyed-by-the-algebra-alone", "funcspace.py",
           "key = (algebra, q)\n        core = self.cores.get(key)",
           "key = algebra\n        core = self.cores.get(key)",
           (SHARED_CORE, ZERO_CLASSES)),
    Mutant("ring-budget-ignored", "funcspace.py",
           "if count > budget:", "if count > DEFAULT_ENUM_BUDGET:",
           (f"{FUNCSPACE}::test_budget_refusal",)),
    Mutant("index-range-check", "funcspace.py",
           "if not 0 <= d < m:", "if not 0 <= d <= m:",
           (f"{FUNCSPACE}::test_index_refuses_tuples_outside_the_ring",)),
    Mutant("chi-clopen-test", "funcspace.py",
           "if not self.space.is_clopen(u):", "if not self.space.is_open(u):",
           (f"{FUNCSPACE}::test_chi_tests_clopenness_against_the_clopen_masks",)),
    Mutant("chi-cache-key", "funcspace.py",
           'self.keep(("chi", a),', 'self.keep(("chi",),',
           (CHI_INDEX,)),
    Mutant("chi-table-kept-uncharged", "funcspace.py",
           'self.keep(("chi", a), self._chi_table, a)',
           'self.keep(("chi", a), self._chi_table, a, entries=lambda t: 0)',
           (CHARGED,)),
    Mutant("principal-table-charged-len-only", "ideals.py",
           "entries=lambda t: len(t) * -(-len(t) // 32))", "entries=len)",
           (CHARGED,)),
    Mutant("lattice-reread-through-keep", "verify/context.py",
           "    @cached_property\n    def _lattice(self):",
           "    @property\n    def _lattice(self):",
           (ONE_BUILD,)),
    Mutant("context-principals-not-held", "verify/context.py",
           "table = self._principals.get(mode)", "table = None",
           (ONE_BUILD,)),
    Mutant("context-chi-tables-not-held", "verify/context.py",
           "table = self._chi.get(a)", "table = None",
           (ONE_BUILD,)),
    Mutant("chi-content-backwards", "verify/context.py",
           "return tuple(sorted(self.chi_table()))",
           "return tuple(sorted(self.chi_table(), reverse=True))",
           ("tests/test_context.py::test_planted_set_fails_the_chi_content_laws",)),

    # -- value tuples decoded on demand, zero sets as class masks ----------
    Mutant("decoder-digits-reversed", "funcspace.py",
           "return tuple(digits[::-1])", "return tuple(digits)",
           (DECODE,)),
    Mutant("negative-index-not-wrapped", "funcspace.py",
           "self.take((i + self._len if i < 0 else i,))",
           "self.take((i,))",
           (DECODE,)),
    Mutant("decode-memo-keyed-by-wrapped-index", "funcspace.py",
           "f = memo.get(i)", "f = memo.get(i % n)",
           (DECODE, TAKE)),
    Mutant("decoded-tuples-charged-one-entry-each", "funcspace.py",
           "len(new) * self._q)", "len(new))",
           (f"{FUNCSPACE}::test_decoded_tuples_are_charged_within_the_cap",)),
    Mutant("take-skips-the-range-check", "funcspace.py",
           "if not 0 <= i < n:", "if not i < n:",
           (TAKE,)),
    Mutant("zero-classes-bits-reversed", "funcspace.py",
           "map((1 << c).__or__",
           "map((1 << (len(self.classes) - 1 - c)).__or__",
           (ZERO_CLASSES,)),
    Mutant("zero-class-bytes-bits-reversed", "funcspace.py",
           "masks.translate(OR_BIT[c])", "masks.translate(OR_BIT[q - 1 - c])",
           (ZERO_CLASSES,)),
    Mutant("zero-classes-kept-uncharged", "funcspace.py",
           'self.keep("zero_classes", self._zero_classes)',
           'self.keep("zero_classes", self._zero_classes,\n'
           '                         entries=lambda masks: 0)',
           (ZERO_CLASS_CAP,)),

    # -- clopens as class masks -------------------------------------------
    Mutant("chi-table-digits-swapped", "funcspace.py",
           "[x + a * w for x in table] + [x + z * w for x in table]",
           "[x + z * w for x in table] + [x + a * w for x in table]",
           (CHI_INDEX, FAMILY)),
    Mutant("chi-pairs-complement-off-by-one-class", "verify/checkers.py",
           "chi[ctx.all_classes ^ u]) for u in ctx.clopens]",
           "chi[ctx.all_classes >> 1 ^ u]) for u in ctx.clopens]",
           (GREEN,)),
    Mutant("nested-grid-subset-reversed", "verify/checkers.py",
           "return u & ~w == 0", "return w & ~u == 0",
           (GREEN,)),

    # -- checker bodies: hoisted reads, per-context memos ------------------
    Mutant("body-memo-keyed-without-the-body", "verify/checkers.py",
           "    if body not in memo:\n"
           "        memo[body] = body(ctx)\n"
           "    return memo[body]\n",
           "    if _run not in memo:\n"
           "        memo[_run] = body(ctx)\n"
           "    return memo[_run]\n",
           (ONCE, PLANTED)),
    Mutant("implied-prefilter-always-skips", "verify/checkers.py",
           "if any(bits >> x & 1 and ys & ~bits for x, ys in need):",
           "if False and any(bits >> x & 1 and ys & ~bits for x, ys in need):",
           (PLANTED,)),
    Mutant("l59-18-filter-not-theta", "verify/checkers.py",
           "if _add(ctx, x, y) == ctx.theta])",
           "if _add(ctx, x, y) != ctx.theta])",
           (GREEN,)),
    Mutant("vanishing-grid-b-order-reversed", "verify/context.py",
           "for b in self.b_values]", "for b in self.b_values[::-1]]",
           (VANISHING,)),
    Mutant("pool-scans-skipped-on-inexact-families", "verify/checkers.py",
           "    return (len(set(chi)) == len(chi)\n",
           "    return True or (len(set(chi)) == len(chi)\n",
           (PLANTED,)),
    Mutant("l61-sums-against-the-union-only", "verify/checkers.py",
           "and out & ~ctx.join(a, b):", "and out & ~(a | b):",
           (GREEN,)),

    # -- one zero, and the unit laws the checkers declare -------------------
    Mutant("zero-right-absorption-unchecked", "algebra.py",
           "if any(self.mul[a][z] != z for a in range(m)):", "if False:",
           (ZERO_LAWS,)),
    Mutant("unit-side-unchecked", "algebra.py",
           "if self.unit_side not in (TWO_SIDED, LEFT, RIGHT):",
           "if self.unit_side is None:",
           ("tests/test_algebra.py::"
            "test_make_table_rejects_an_unknown_unit_side",)),
    Mutant("l39-drops-its-unit-law", "verify/checkers.py",
           '@_checker("L39", "unit", "unit_on_side")', '@_checker("L39", "unit")',
           (ONE_SIDED_UNIT,)),
    Mutant("t15-drops-its-unit-law", "verify/checkers.py",
           '"two_components", "unit_slices")', '"two_components")',
           (ONE_SIDED_UNIT,)),
    Mutant("l75-drops-its-unit-law", "verify/checkers.py",
           '"unit", "unit_right_law")', '"unit")',
           (ONE_SIDED_UNIT,)),
    Mutant("l75-marks-ideals-that-hold-f", "verify/checkers.py",
           "bad |= both & ~held[f]", "bad |= both",
           (PLANTED,)),
    Mutant("unit-on-side-reads-the-opposite-law", "verify/checkers.py",
           "or ctx.algebra.unit_side in (ctx.side, TWO_SIDED)),",
           "or ctx.algebra.unit_side not in (ctx.side,)),",
           (ONE_SIDED_UNIT,)),

    # -- the quotient by quasi-components and C(Z, Z_2) on indices ---------
    Mutant("t6-tests-points-not-classes", "verify/checkers.py",
           "enumerate(quasi_component_partition(space))",
           "enumerate(map(frozenset, zip(space.points)))",
           (GREEN,)),
    Mutant("l44-quotient-classes-reversed", "verify/checkers.py",
           "vanishing_elements(target, {ring.class_of[x]})",
           "vanishing_elements(target, "
           "{len(ring.classes) - 1 - ring.class_of[x]})",
           (GREEN,)),
    Mutant("l66-zero-sets-drop-the-first-function", "verify/checkers.py",
           "zsets = set(two.zero_classes())",
           "zsets = set(two.zero_classes()[1:])",
           (GREEN, CHECK_GOLDEN)),

    # -- the behaviour contract ---------------------------------------------
    Mutant("t26-witness-sets-swapped", "verify/checkers.py",
           '"U1": ctx.points(u1), "U": ctx.points(u),',
           '"U1": ctx.points(u), "U": ctx.points(u1),',
           (CHECK_GOLDEN,)),

    # -- the command line -------------------------------------------------
    Mutant("cli-primes-check", "cli.py",
           "if args.primes < 1:", "if args.primes < 0:",
           (f"{CLI}::test_generate_bad_arguments_are_usage_errors",)),
    Mutant("cli-zmod-check", "cli.py",
           "int(m.group(1)) < 2:", "int(m.group(1)) < 1:",
           (f"{CLI}::test_generate_bad_arguments_are_usage_errors",)),
    Mutant("tokenizer-column-off-by-one", "dsl.py",
           "tokens.append(Token(kind, m[kind], line, m.start(kind) + 1))",
           "tokens.append(Token(kind, m[kind], line, m.start(kind)))",
           ("tests/test_dsl.py::test_tokenize_matches_the_reference",)),
    Mutant("dsl-zmod-bound", "dsl.py",
           '2, "zmod needs a modulus of at least 2"',
           '1, "zmod needs a modulus of at least 2"',
           (f"{CLI}::test_zmod_below_two_is_a_parse_error",)),
    Mutant("cli-contexts-drop-budget", "cli.py",
           "budget=budget, seed=seed)", "seed=seed)",
           (f"{CLI}::test_check_reads_its_rings_under_the_budget",)),
]


def _copy(dest: Path):
    skip = shutil.ignore_patterns("__pycache__")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _passes(tree: Path, tests) -> bool:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        named = sorted({t for m in MUTANTS for t in m.tests})
        if not _passes(tree, named):
            print("the named tests fail on the unmutated source")
            return 1
        for m in MUTANTS:
            target = tree / "src" / "quasiring" / m.path
            source = target.read_text()
            hits = source.count(m.old)
            if hits != 1:
                print(f"{m.name}: the edit matches {hits} places in {m.path}")
                bad.append(m.name)
                continue
            target.write_text(source.replace(m.old, m.new))
            try:
                killed = not _passes(tree, m.tests)
            finally:
                target.write_text(source)
            print(f"{m.name}: {'killed' if killed else 'SURVIVED'}")
            if not killed:
                bad.append(m.name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
