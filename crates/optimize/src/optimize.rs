//! The optimizer layer between bind/rewrite and compile: cost-free,
//! semantics-preserving rewrite rules over the bound algebra.
//!
//! The headline rule is **sublink decorrelation**: `EXISTS` / `NOT EXISTS` /
//! `IN` / `= ANY` sublinks appearing as top-level conjuncts of a selection
//! are unnested into hash semi joins (`⋉`) and anti joins (`▷`) over the
//! sublink's body, with the correlated comparison conjuncts hoisted into the
//! join condition. This is the static counterpart of the runtime binding
//! memo: where the memo re-executes the sublink once per distinct outer
//! binding, the decorrelated plan executes the body exactly once and lets
//! the (hash) join machinery distribute it over the outer rows. Shapes the
//! rules cannot prove safe keep the memo path, untouched: a scalar
//! comparison, `ALL` or a negated / non-equality `ANY` as the conjunct
//! itself (three-valued verdicts no semi join reproduces); correlation in a
//! conjunct that is not one `outer ⟨op⟩ inner` comparison; correlation that
//! crosses more than one scope; a correlated grouped (`GROUP BY`)
//! aggregate, set operation, sort or limit in the body; correlation on the
//! right of a left outer join whose left side does not pin the binding
//! down; any non-total expression the rewrite would move (arithmetic, a
//! function call — not a `$n` parameter, which is bound before the first
//! operator runs).
//!
//! Supporting rules in the same fixpoint driver: constant folding over
//! predicates (a literal that absorbs a total sibling included: `l ∨ TRUE`,
//! `l ∧ FALSE`), predicate pushdown through projections / `INTERSECT` /
//! `EXCEPT` / semi- and anti-join probe sides / cross products / onto the
//! preserved side of a left outer join (assuming the pushed conjuncts
//! inside its condition), and projection pruning off column liveness; the
//! folds and the pushdown apply inside sublink bodies too (see "Inside
//! sublink bodies"). Once the fixpoint is quiet, stacked projections are
//! composed and every `Sort` moves below the order-preserving operators
//! under it, and last of all a selection left directly above a cross
//! product becomes a join (the last two sections). What `optimize` returns
//! is exactly what
//! `Executor::prepare` (in `perm-exec`) compiles.
//!
//! Every pass but projection pruning (liveness flows down, so it walks
//! top-down) is a node-local rule under the one bottom-up rewrite the
//! binder's pushdown runs under too, [`PlanRef::rewrite_up`]; decorrelation
//! leaves sublink plans out.
//!
//! # Equivalence discipline
//!
//! Every rule preserves four observables of the reference interpreter
//! (`Executor::execute_unoptimized` in `perm-exec`):
//!
//! 1. **Result bags** (and therefore provenance witness bags — the
//!    provenance rewrite runs *before* the optimizer, so witness attributes
//!    are ordinary columns here).
//! 2. **The error set.** The engine's `AND` evaluates its right operand
//!    when the left is `UNKNOWN` (only `FALSE` short-circuits), so moving,
//!    dropping, or re-ordering a conjunct changes *which expressions are
//!    evaluated on which rows*. Rules therefore only move expressions that
//!    are *total* (see `expr_is_total`) — provably unable to raise an evaluation
//!    error — unless the move provably keeps the evaluation set intact
//!    (e.g. an `EXISTS` verdict is never `UNKNOWN`, so a leading `EXISTS`
//!    conjunct gates its successors exactly like the semi join it becomes).
//!    A query parameter `$n` is total. It is the degenerate correlation:
//!    substituted once, for the whole query, before evaluation starts. Every
//!    entry that starts an execution — the reference interpreter's included
//!    — checks that the bound vector covers the highest `$n` of the plan *as
//!    given* and returns `ExecError::Param` before its first
//!    operator otherwise (`Executor::bind_params`). So for a vector
//!    that is too short, the plan as written and every rewriting of it have
//!    the one same outcome, whatever rows the `$n` would have been evaluated
//!    on and even when a rule dropped it; for any other vector, evaluating
//!    `$n` is a constant lookup that cannot fail, anywhere it is moved to.
//! 3. **Operator invocations**: a rewritten plan evaluates every operator
//!    once, so its `operators_evaluated` is its size — a constant, where the
//!    reference pays one sublink execution per distinct binding. A rule may
//!    add a fixed handful of operators (the join and key projection of a
//!    decorrelated sublink, the second copy of a split selection's input)
//!    and never one that grows with the data; on every correlated point
//!    with more than a handful of bindings the count drops.
//! 4. **The row order below a `Sort` / `Limit`.** What reaches a `Sort` is
//!    a list, not a bag: the sort is stable, so the order of its input
//!    decides its ties, and a `Limit` above cuts through them. Every
//!    physical operator emits a fixed order (`physical.rs`: a join emits
//!    its left rows in input order, each with its matches in right-input
//!    order, resident or spilled), so a rule either leaves the list that
//!    reaches each `Sort` / `Limit` as it was or proves the list it makes
//!    equal.
//!
//! The differential suites enforce all four over the full random corpus
//! (the optimized plan against the reference interpreter on the bound
//! plan, result and witness bags bag-identical, and identical as
//! sequences wherever the query orders them).
//!
//! # The rules that make the Gen rewrite join-shaped
//!
//! Gen (rules G1/G2) emits `σ[C ∧ Csub⁺](T⁺ × CrossBase(Tsub))` with
//! `Csub⁺ = EXISTS(σ_{Jsub ∧ P =ₙ chk}(Tsub⁺)) ∨ (¬EXISTS(Tsub) ∧ P =ₙ NULL)`.
//! The rules below are generic — none matches on that shape — but together
//! they turn it into hash joins. The selection-level ones (implication,
//! split, and the decorrelation of what they produce) are **all or nothing
//! per selection**: when a sublink they exposed cannot become a join, the
//! selection is left exactly as the single-conjunct rule above leaves it.
//!
//! **Conjunct implication.** A row on which a conjunct is not TRUE is
//! dropped whatever the later conjuncts say, so inside the conjuncts
//! *after* a sublink conjunct a structural copy of that sublink reads as
//! the constant it must be (`EXISTS(T)` TRUE; under `NOT EXISTS(T)` FALSE;
//! `x = ANY(T)` TRUE and with it `EXISTS(T)`; a negated `ANY`/`ALL` FALSE),
//! also inside nested sublink plans wherever no operator shadows a column
//! the copy reads. *Bags:* `C ∧ φ ≡ C ∧ φ[C := TRUE]` in three-valued
//! logic. *Errors:* after a two-valued (`EXISTS`) conjunct, `φ` runs on
//! exactly the rows where the copy has that value, and the copy cannot
//! fail where the original just succeeded; a three-valued conjunct lets
//! `UNKNOWN` rows through, where the simplified `φ` may skip operands the
//! original evaluated — then `φ` must be total. This collapses `Jsub` to
//! one comparison and `Csub⁺` to the membership test (`EXISTS`, `IN`) or to
//! `EXISTS(…) ∨ P =ₙ NULL` (`NOT EXISTS`).
//!
//! **One-row `EXISTS`.** `EXISTS` over a global aggregate (under
//! projections) is TRUE when the body is total — an aggregated sublink's
//! "empty sublink" disjunct folds away.
//!
//! **Disjunction split.** `σ_{pre ∧ (A∨B) ∧ post}(X)` with `A` an
//! `EXISTS` / `NOT EXISTS` verdict becomes `σ_{pre ∧ A ∧ post}(X) ∪ALL
//! σ_{pre ∧ ¬A ∧ B ∧ post}(X)`. *Bags:* `A` is two-valued, so every row
//! satisfies exactly one of `A`, `¬A`; a row passes the disjunction iff it
//! passes `A`, or fails `A` and passes `B` — no knowledge that the
//! disjuncts exclude each other is needed, and no row is emitted twice.
//! *Errors:* `pre` and `A` run on the rows they ran on; `B` ran where `A`
//! was FALSE and still does; `post` ran where `pre ∧ (A∨B)` was not FALSE,
//! which is the union of where the two branches run it. *Operators:* `X`
//! is read twice.
//!
//! **Hoisting through the body.** The correlated conjuncts of a sublink
//! body are lifted out of it by a walk through selections, projections
//! (composed by substitution, never executed per binding), cross products,
//! inner and left outer joins: `σ_{e ⟨op⟩ k ∧ p}(T)` contributes the join
//! conjunct `e ⟨op⟩ k` and leaves `σ_p(T)`. *Bags:* for every binding the
//! body's rows are the rows of the lifted plan on which the hoisted
//! conjuncts hold, which is what the semi/anti join tests. *Errors:* the
//! lifted body runs once over all bindings' rows, so every expression that
//! is evaluated on more rows than before (conjuncts after a hoisted one,
//! composed projection items, hoisted sides) must be total. A left outer
//! join pads *per binding*: correlation on its right side is lifted only
//! when the left side pins the binding (`e =ₙ l`), as the join conjunct
//! `l ⟨op⟩ r`.
//!
//! **Grouping an aggregated body.** A global aggregate over an
//! equality-correlated input — the body of a scalar sublink, and the left
//! side of the `⟕` the aggregation rewrite rule R5 builds — becomes
//! `γ_{d; aggs}(δ(Π_{e→d}(driver)) ⟕_{d = k} T)` with the pair `e =ₙ d`.
//! *Bags:* the driver holds every binding the outer rows have, and the
//! left outer join keeps a binding without rows as one padded row, so its
//! group yields what the aggregate yields over an empty input (`count` 0,
//! by counting a marker the padding leaves NULL; the COUNT bug). *Errors:*
//! the driver is read off the outer input's cross-product factor that
//! resolves `e`, which may hold bindings no row reaching the sublink has;
//! the grouped plan must be total so that their groups are unobservable.
//!
//! **Pushdown through `×` / `⋈`.** A total, sublink-free conjunct that
//! references one side of a cross product or inner join moves to that side
//! (`P =ₙ NULL` shrinks `CrossBase` to its NULL row), also out of a
//! selection whose other conjuncts carry sublinks when the whole predicate
//! is total. A semi/anti join whose condition reads one factor of the
//! cross product below it moves onto that factor: `(L × R) ⋉_{θ(L)} S =
//! (L ⋉_θ S) × R`. *Bags:* every `(l, r)` pair survives iff `l` does.
//! *Errors:* `S` and `θ` now run whenever `L` has rows, before only when
//! `L × R` had: either both are total or `R` is provably non-empty (`… ∪ALL
//! Values(1 row)`).
//!
//! **Semi join through a cross product.** `(L × R) ⋉_{θL ∧ θR} S` whose
//! conjuncts are all column equalities (`=` or `=ₙ`) against `S` becomes
//! `Π_{L,R}(L ⋈_{θL} (R ⋈_{θR} δ(Π_keys(S))))`. *Bags:* a pair `(l, r)`
//! survives iff some key tuple matches both; equality under `=`/`=ₙ` is
//! the engine's one key equivalence, which `δ` also uses, so at most one
//! distinct key tuple matches a given pair and `L`'s and `R`'s own
//! duplicates multiply as before. *Errors:* `S` now always runs — it must
//! be total. *Operators:* two more, and no `|L| · |R|` product.
//!
//! # The rule that makes the Left and Move rewrites join-shaped
//!
//! Left and Move (rules L1/T1) emit `σ_C(T⁺ ⟕_{Jsub} Tsub⁺)` with `Jsub =
//! C'sub ∨ ¬Csub` (`ANY`) or `Csub ∨ ¬C'sub` (`ALL`), where `Csub` is the
//! sublink itself (Left) or the column Move projected it to. The
//! disjunction has no hash key, and the selection on top throws away every
//! pair on which `Csub` is not TRUE. One generic rule — it matches on
//! neither shape — runs the join as what is left of it on the others.
//!
//! **Pushdown onto the preserved side.** `σ_{c ∧ rest}(L ⟕_θ R)` becomes
//! `σ_rest(σ_c(L) ⟕_{θ[c := TRUE]} R)` for the conjuncts `c` that read `L`
//! alone, in their original order; conjuncts that read `R` or both sides
//! stay on top. Every pair the join then sees has `c` TRUE — not merely
//! "not FALSE": `σ_c` dropped the UNKNOWN rows too — so a structural copy
//! of `c` inside `θ` is the literal TRUE (`NOT x` establishes `x` FALSE, `x
//! = ANY(T)` also `EXISTS(T)`; copies inside nested sublink plans count
//! wherever no operator shadows a column `c` reads), and the folds finish:
//! `C' ∨ ¬TRUE → C'`, an equi-join; `TRUE ∨ ¬C' → TRUE`, pad-or-cross.
//! *Bags:* `⟕` emits at least one row per `L` row, each carrying `L`'s
//! values verbatim, and `c` reads only those — a row of `L` failing `c`
//! contributes nothing to the result either way, one passing it is joined
//! with the `R` rows on which `θ` holds, where `θ` and `θ[c := TRUE]`
//! agree. *Errors:* `c` runs once per `L` row instead of once per joined
//! row — the same `L` rows, and the whole predicate must be total, so no
//! evaluation order inside it is observable; `θ` runs on fewer pairs and
//! `R` not at all when `σ_c(L)` is empty, so `θ` (under `L ∘ R`) and `R`
//! must be total. *Operators:* one selection more, never one that grows
//! with the data. A conjunct that holds a sublink may move (here only;
//! everywhere else a sublink-bearing selection stays put): an uncorrelated
//! sublink still executes once, a correlated one once per distinct binding
//! of the `L` rows it still sees. It moves only when `θ` comes out free of
//! sublinks, though — a sublink under a disjunction of `C` establishes
//! nothing, `Jsub` keeps its copy and the join its probe per pair, so the
//! selection keeps its shape too. Rules L2/T2 (a sublink in a projection)
//! have no selection that establishes `Csub`; they are untouched. Where
//! assuming `c` leaves `C' ∨ TRUE` (`NOT IN`), the literal absorbs `C'` —
//! total, like all of `θ` — on the spot: `⟕_TRUE`.
//!
//! # The rules that keep `ORDER BY` off the witness fan-out
//!
//! Every rewrite rule wraps its input in one more rename-only `Π`, and the
//! rewrite re-applies `ORDER BY` on top of `q⁺`: `Sort(Π(Π(T⁺ ⋈ Tsub⁺)))`
//! drags every witness row through the sort and two projections. Two
//! generic rules, run **once, after the fixpoint** — so that no rule above
//! meets a shape it did not meet before — and bottom-up, sublink plans
//! included.
//!
//! **Projection composition.** `Π_a(Π_b(X))`, both non-distinct, becomes
//! `Π_{a∘b}(X)`: every reference of `a` to an output of `b` is replaced by
//! the item that defines it; aliases and qualifiers are `a`'s, so nothing
//! above — a correlated reference included — resolves differently.
//! *Bags:* projection is per row; substitution is what evaluating `b`
//! first computes. *Errors:* `a`'s items run on the rows they ran on. An
//! item of `b` used to run on every row; composed, it runs where `a`
//! evaluates it — so an item that can fail must be passed through by `a`
//! as an item of its own, not dropped and not only read inside an
//! expression that may shield it (`CASE`, `AND`). Sublink items stay (rules
//! L2/T2 and the memo own those). *Order:* per row, unchanged.
//! *Operators:* one fewer; a computed item of `b` that `a` reads twice
//! would run twice, so only columns, literals and `$n` may be duplicated.
//!
//! **Sort pushdown.** `Sort_k(Π(X))` becomes `Π(Sort_{k∘Π}(X))` for a
//! non-distinct `Π`, and `Sort_k(L ⋈ R)` becomes `Sort_k(L) ⋈ R` — for
//! `⋈`, `⟕`, `⋉`, `▷` and `×` alike — when every key reads columns of `L`
//! alone. Never through `σ` (the sort would see the rows it drops), `γ`,
//! `Π_S`, set operations, `Limit` or another `Sort`. *Bags:* a sort
//! permutes. *Order:* `Π` is per row. A join emits its left rows in input
//! order, each with its matches in an order that depends on `R` alone
//! (bucket order on the hash path, input order in the nested loop, ordinal
//! re-sort after a grace probe), and a key that reads `L` is the same on a
//! left row and on all of its matches: stable-sorting the output moves
//! whole per-row groups, ties in input order — which is the list the join
//! emits over the stable-sorted `L`. Sequence-exact, so a `Limit` above is
//! safe. *Errors:* the keys run before `Π` and on the left rows a join
//! drops, so the (substituted) keys must be total — each column resolving,
//! unambiguously, at the position it had in the join's output; `L` being a
//! prefix of `L ∘ R`, that is its position in `L`. `Π`'s items run on the
//! same rows as before, but a `Limit` above may now stream them over a
//! prefix of the sorted rows only (`pipeline.rs`), so they must be total as
//! well. The join, its condition and `R` run exactly as before.
//! *Operators:* unchanged. Without statistics the downside is bounded — a
//! join that filters `L` now sorts rows its probe reads anyway, one `log
//! |L|` factor on a pass the join already makes; a `Π` that narrows makes
//! the sort buffer wider rows — and the upside is the fan-out factor: the
//! rows `q` returns are sorted, not their witnesses.
//!
//! # Inside sublink bodies
//!
//! The fold and pushdown passes enter the plan of every sublink, carrying
//! the scopes that enclose it as a [`Scopes`] chain, innermost first: the
//! scope of the operator holding the sublink, then that operator's own
//! enclosing scopes. [`PlanRef::rewrite_up`] puts that link on the stack as
//! it enters a body and hands each rule the chain enclosing its operator.
//! Decorrelation stays in the top scope (`decorrelate::decorrelate`). Gen
//! (rules G1/G2) puts each base relation's witness projection `R⁺` under the
//! sublink's own correlated selection; this is what moves that selection
//! onto the scan.
//!
//! **Scope rule.** Inside a body, a column that no local scope resolves but
//! an enclosing one does is an *outer reference*. The executor binds it once
//! per distinct binding of the sublink, so for one execution of the body it
//! is a constant. The totality checks resolve against the whole chain, so an
//! outer reference is total. The side checks (a conjunct sinking onto a
//! product factor, a semi join's probe references, a conjunct moving onto
//! the preserved side) count it as reading neither side.
//!
//! **Capture.** A predicate moved below an operator is evaluated in the
//! scope of that operator's input. An outer reference means the same there
//! only when the input does not know its name either. Through a projection,
//! a reference that neither the projection's output nor its input resolves
//! stays as it is; one that the input resolves but the output does not (the
//! projection renamed that column away or dropped it) refuses the move,
//! because below the projection it would read the input's column. Through a
//! product, join, semi/anti probe side or set operation nothing is
//! captured: a name the operator's scope does not know is known to none of
//! its inputs.
//!
//! **Per binding.** Fix one binding of the outer references. The body is
//! then an ordinary plan over constants, and each rule's argument above
//! holds for it unchanged. *Bags:* the body yields the same bag for the
//! binding. *Errors:* every expression runs on the rows it ran on, or is
//! total under the chain; so each binding's execution fails exactly when it
//! did, with the same error. *Operators:* a rule adds none per binding, and
//! the sublink still executes once per distinct binding of the same outer
//! columns — a moved predicate reads the columns it read — so neither the
//! number of sublink executions nor the memo's hits change. A fold that
//! drops an outer reference (`l ∨ TRUE`, `l` total) makes the body depend
//! on fewer columns; its result is the same for every binding. *Order:*
//! below a `Sort` / `Limit` of the body the list is kept as each rule keeps
//! it at the top.
//!
//! # The last step: a selection over a product becomes a join
//!
//! **Selection fusion**, once, bottom-up, sublink plans included: `σ_p(L ×
//! R)` becomes `L ⋈_p R` whatever `p` holds — so a product the fixpoint
//! could not turn into joins (the `CrossBase` of a Gen rewrite whose
//! sublink stays) is never materialised unfiltered — and `σ_p(L ⋈_θ R)`
//! over an inner join becomes `L ⋈_{θ ∧ p} R` when `p` holds no sublink (a
//! sublink predicate stays above, to run once per joined row). *Bags:* an
//! inner join is the selection of its product. *Order:* both emit each left
//! row with its right rows in input order (`physical.rs`). *Operators:* one
//! fewer. *Errors:* unlike every rule above, this one is not gated on
//! totality: a hash join evaluates `p` only on pairs whose keys match, so a
//! conjunct that can fail is skipped on the pairs a key comparison rejects
//! (`UNKNOWN` for a NULL key; `FALSE` when the conjunct comes first).
//! Running last, it changes no other rule's input.

mod decorrelate;

use perm_algebra::builder::{and, conjunction, split_conjuncts};
use perm_algebra::expr::{BinaryOp, CompareOp, UnaryOp};
use perm_algebra::visit::{
    count_sublinks, expr_is_total, free_expr_columns, is_total_under, plan_is_total, resolves,
    side_of, walk_column_refs, yields_one_row, Side,
};
use perm_algebra::{
    arithmetic, compare, Expr, JoinKind, Plan, PlanRef, ProjectItem, Scopes, SetOpKind, SortKey,
    SublinkKind,
};
use perm_storage::{Name, Schema, Value};

/// Upper bound on fixpoint iterations; each pass applies every rule once.
const MAX_PASSES: usize = 4;

/// What the optimizer did to one plan — per-rule fire counts — and what it
/// left: reported through `SessionStats` and rendered by `EXPLAIN`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerReport {
    /// Sublinks unnested into semi/anti joins.
    pub sublinks_decorrelated: u64,
    /// Copies of an established conjunct — an earlier conjunct of the same
    /// selection, or one pushed below the join whose condition holds the
    /// copy — replaced by the constant that conjunct implies.
    pub sublinks_implied: u64,
    /// Selections over `A ∨ B` split into a `UNION ALL` of two.
    pub disjunctions_split: u64,
    /// Correlated global aggregates grouped by their correlation key.
    pub aggregates_grouped: u64,
    /// Semi/anti joins moved onto one factor of a cross product.
    pub joins_pushed: u64,
    /// Semi joins over a cross product turned into two inner joins against
    /// the distinct keys.
    pub semi_joins_expanded: u64,
    /// Conjuncts of a selection over a left outer join moved onto the
    /// join's preserved (left) side.
    pub preserved_side_pushed: u64,
    /// Constant subexpressions folded (including selections proven
    /// always-true or always-false).
    pub constants_folded: u64,
    /// Selections (or single conjuncts) pushed through a projection, set
    /// operation, semi/anti join probe side, cross product or inner join
    /// (the outer-join case counts under `preserved_side_pushed`).
    pub predicates_pushed: u64,
    /// Projections narrowed by the liveness pass.
    pub projections_pruned: u64,
    /// Stacked non-distinct projections composed into one.
    pub projections_composed: u64,
    /// Order-preserving operators (a projection, the left side of a join
    /// or cross product) a `Sort` was moved below.
    pub sorts_pushed: u64,
    /// Selections directly above a cross product, or a sublink-free one
    /// directly above an inner join, fused into the join.
    pub selections_fused: u64,
    /// Sublinks the optimized plan still holds, nested ones included —
    /// each runs through the binding memo. Not a rule: excluded from
    /// [`OptimizerReport::rules_fired`].
    pub sublinks_remaining: u64,
    /// Fixpoint passes run (diagnostic).
    pub passes: u64,
}

impl OptimizerReport {
    fn fire_counts(&self) -> [(&'static str, u64); 13] {
        [
            ("decorrelate", self.sublinks_decorrelated),
            ("imply", self.sublinks_implied),
            ("split", self.disjunctions_split),
            ("group", self.aggregates_grouped),
            ("join-pushdown", self.joins_pushed),
            ("semi-expand", self.semi_joins_expanded),
            ("outer-pushdown", self.preserved_side_pushed),
            ("fold", self.constants_folded),
            ("pushdown", self.predicates_pushed),
            ("prune", self.projections_pruned),
            ("compose", self.projections_composed),
            ("sort-pushdown", self.sorts_pushed),
            ("fuse", self.selections_fused),
        ]
    }

    /// Total rule applications across all rules.
    pub fn rules_fired(&self) -> u64 {
        self.fire_counts().iter().map(|(_, n)| n).sum()
    }

    /// One-line human-readable summary (`decorrelate×2 pushdown×1`, or
    /// `no rules fired`), followed by `; N sublinks remain` when the plan
    /// keeps any.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .fire_counts()
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name}×{n}"))
            .collect();
        let mut out = if parts.is_empty() {
            "no rules fired".to_string()
        } else {
            parts.join(" ")
        };
        match self.sublinks_remaining {
            0 => {}
            1 => out.push_str("; 1 sublink remains"),
            n => out.push_str(&format!("; {n} sublinks remain")),
        }
        out
    }
}

/// Optimizes a bound (or provenance-rewritten) plan. Pure plan-to-plan:
/// the input is the reference shape, the output is what gets compiled.
///
/// Only the root operator is copied: every subtree a rule leaves alone is
/// shared with `plan` (see [`perm_algebra::plan`]), and a pass that fires
/// nothing walks the plan without rebuilding it.
pub fn optimize(plan: &Plan) -> (Plan, OptimizerReport) {
    let mut rep = OptimizerReport::default();
    let mut fresh = 0usize;
    let mut current = PlanRef::new(plan.clone());
    for _ in 0..MAX_PASSES {
        // Every change to the plan is a counted rule application, so a
        // pass that fires nothing has reached the fixpoint.
        let fired_before = rep.rules_fired();
        current = current.rewrite_up(None, true, &mut |node, outer| fold(node, outer, &mut rep));
        current = current.rewrite_up(None, false, &mut |node, _| {
            decorrelate::decorrelate(node, &mut rep, &mut fresh)
        });
        current = current.rewrite_up(None, true, &mut |node, outer| {
            pushdown(node, outer, &mut rep)
        });
        current = prune_pass(&current, None, &mut rep);
        rep.passes += 1;
        if rep.rules_fired() == fired_before {
            break;
        }
    }
    // Once, after the fixpoint has gone quiet: what these leave behind is a
    // shape no rule above needs to see again.
    current = current.rewrite_up(None, true, &mut |node, _| order(node, &mut rep));
    current = current.rewrite_up(None, true, &mut |node, _| fuse(node, &mut rep));
    rep.sublinks_remaining = count_sublinks(&current);
    (current.into_plan(), rep)
}

/// A stable structural fingerprint of the operator tree (FNV-1a over the
/// operator tags, join/set-op kinds, expression renderings, and sublink
/// plans), recorded in bench rows so measured speedups are attributable to
/// plan-shape changes. Stable across processes: nothing address- or
/// hash-map-ordering-dependent goes into it.
pub fn plan_fingerprint(plan: &Plan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fingerprint_into(plan, &mut h);
    h
}

fn fnv1a_step(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

fn fingerprint_into(plan: &Plan, h: &mut u64) {
    let tag: &str = match plan {
        Plan::Scan { table, alias, .. } => {
            fnv1a_step(h, b"scan:");
            fnv1a_step(h, table.as_bytes());
            if let Some(a) = alias {
                fnv1a_step(h, a.as_bytes());
            }
            return;
        }
        Plan::Values { rows, .. } => {
            fnv1a_step(h, b"values:");
            fnv1a_step(h, &(rows.len() as u64).to_le_bytes());
            return;
        }
        Plan::Project { distinct, .. } => {
            if *distinct {
                "project-distinct"
            } else {
                "project"
            }
        }
        Plan::Select { .. } => "select",
        Plan::CrossProduct { .. } => "cross",
        Plan::Join { kind, .. } => match kind {
            JoinKind::Inner => "join-inner",
            JoinKind::LeftOuter => "join-left",
            JoinKind::Semi => "join-semi",
            JoinKind::Anti => "join-anti",
        },
        Plan::Aggregate { .. } => "aggregate",
        Plan::SetOp { op, all, .. } => match (op, all) {
            (perm_algebra::SetOpKind::Union, true) => "union-all",
            (perm_algebra::SetOpKind::Union, false) => "union",
            (perm_algebra::SetOpKind::Intersect, true) => "intersect-all",
            (perm_algebra::SetOpKind::Intersect, false) => "intersect",
            (perm_algebra::SetOpKind::Except, true) => "except-all",
            (perm_algebra::SetOpKind::Except, false) => "except",
        },
        Plan::Sort { .. } => "sort",
        Plan::Limit { .. } => "limit",
    };
    fnv1a_step(h, tag.as_bytes());
    fnv1a_step(h, b"(");
    plan.walk_expressions(&mut |expr| {
        fnv1a_step(h, expr.to_string().as_bytes());
        expr.walk(&mut |e| {
            if let Expr::Sublink { plan: sp, .. } = e {
                fnv1a_step(h, b"[");
                fingerprint_into(sp, h);
                fnv1a_step(h, b"]");
            }
        });
    });
    for child in plan.inputs() {
        fnv1a_step(h, b",");
        fingerprint_into(child, h);
    }
    fnv1a_step(h, b")");
}

// ---------------------------------------------------------------------------
// Totality analysis (`expr_is_total`, `plan_is_total`: `perm_algebra::visit`)
// ---------------------------------------------------------------------------

/// `true` when `plan` yields at least one row whatever the database holds.
fn provably_nonempty(plan: &Plan) -> bool {
    match plan {
        Plan::Values { rows, .. } => !rows.is_empty(),
        Plan::Project { input, .. } | Plan::Sort { input, .. } => provably_nonempty(input),
        Plan::SetOp {
            op: SetOpKind::Union,
            left,
            right,
            ..
        } => provably_nonempty(left) || provably_nonempty(right),
        Plan::CrossProduct { left, right } => provably_nonempty(left) && provably_nonempty(right),
        Plan::Aggregate { group_by, .. } => group_by.is_empty(),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Scopes inside sublink bodies
// ---------------------------------------------------------------------------

/// `refs` without their outer references: the columns `local` does not know
/// and an enclosing scope (`outer`) resolves. Each binding of the sublink
/// whose body reads one makes it a constant, so it reads no side of
/// anything below `local`. Outside sublink bodies there are none.
fn local_refs(
    mut refs: Vec<(Option<Name>, Name)>,
    local: &Schema,
    outer: Option<&Scopes<'_>>,
) -> Vec<(Option<Name>, Name)> {
    if let Some(outer) = outer {
        refs.retain(|&(q, n)| {
            !(matches!(local.try_resolve(q, n), Ok(None)) && resolves(outer, q, n))
        });
    }
    refs
}

// ---------------------------------------------------------------------------
// Rule: constant folding
// ---------------------------------------------------------------------------

/// Folds the predicate of a selection or join, under the scopes `outer`
/// enclosing the sublink body it sits in (none at the top); the rule of a
/// bottom-up pass that enters sublink plans.
fn fold(node: &PlanRef, outer: Option<&Scopes<'_>>, rep: &mut OptimizerReport) -> Option<PlanRef> {
    match &**node {
        Plan::Select { input, predicate } => {
            let scope = input.schema();
            let folded = fold_expr(predicate, &Scopes::new(&scope, outer), rep);
            match folded.as_ref().unwrap_or(predicate) {
                Expr::Literal(Value::Bool(true)) => {
                    rep.constants_folded += 1;
                    Some(input.clone())
                }
                Expr::Literal(v)
                    if (v.is_null() || *v == Value::Bool(false))
                    // Dropping the input skips all of its evaluations, so
                    // it must be provably error-free.
                    && is_total_under(input, outer) =>
                {
                    rep.constants_folded += 1;
                    Some(PlanRef::new(Plan::Values {
                        schema: Schema::clone(&input.schema()),
                        rows: Vec::new(),
                    }))
                }
                _ => folded.map(|predicate| PlanRef::new(select(input.clone(), predicate))),
            }
        }
        Plan::Join {
            left,
            right,
            kind,
            condition,
        } => {
            let scope = node.scope();
            fold_expr(condition, &Scopes::new(&scope, outer), rep).map(|condition| {
                PlanRef::new(Plan::Join {
                    left: left.clone(),
                    right: right.clone(),
                    kind: *kind,
                    condition,
                })
            })
        }
        _ => None,
    }
}

/// Shielding-exact constant folds over a predicate evaluated under the
/// scope chain `scopes` (a chain of one empty scope declines the folds that
/// judge the totality of an operand reading a column). Only folds that
/// cannot change which subexpressions are evaluated fire unconditionally;
/// folds that would *skip* evaluating an operand require it to be total.
/// `None` when nothing folds.
fn fold_expr(expr: &Expr, scopes: &Scopes<'_>, rep: &mut OptimizerReport) -> Option<Expr> {
    expr.rewrite(&mut |e| fold_node(e, scopes, rep))
}

/// The fold of one node whose operands are folded already.
fn fold_node(e: &Expr, scopes: &Scopes<'_>, rep: &mut OptimizerReport) -> Option<Expr> {
    match e {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            // AND short-circuits on a FALSE left operand, so these mirror
            // evaluation exactly.
            (Expr::Literal(Value::Bool(false)), _) => {
                rep.constants_folded += 1;
                Some(Expr::Literal(Value::Bool(false)))
            }
            // `l ∧ FALSE` is FALSE whatever `l` is; `l` no longer runs.
            (l, Expr::Literal(Value::Bool(false))) if expr_is_total(l, scopes) => {
                rep.constants_folded += 1;
                Some(Expr::Literal(Value::Bool(false)))
            }
            (Expr::Literal(Value::Bool(true)), r) => {
                rep.constants_folded += 1;
                Some(r.clone())
            }
            (l, Expr::Literal(Value::Bool(true))) => {
                rep.constants_folded += 1;
                Some(l.clone())
            }
            _ => None,
        },
        Expr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expr::Literal(Value::Bool(true)), _) => {
                rep.constants_folded += 1;
                Some(Expr::Literal(Value::Bool(true)))
            }
            // `l ∨ TRUE` is TRUE whatever `l` is; `l` no longer runs.
            (l, Expr::Literal(Value::Bool(true))) if expr_is_total(l, scopes) => {
                rep.constants_folded += 1;
                Some(Expr::Literal(Value::Bool(true)))
            }
            (Expr::Literal(Value::Bool(false)), r) => {
                rep.constants_folded += 1;
                Some(r.clone())
            }
            (l, Expr::Literal(Value::Bool(false))) => {
                rep.constants_folded += 1;
                Some(l.clone())
            }
            _ => None,
        },
        Expr::Binary {
            op: BinaryOp::Cmp(cop),
            left,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expr::Literal(l), Expr::Literal(r)) => {
                rep.constants_folded += 1;
                Some(Expr::Literal(compare(*cop, l, r).to_value()))
            }
            _ => None,
        },
        // Constant arithmetic (e.g. a bound `date '…' + interval '90' day`)
        // evaluates deterministically, so a successful fold is exact — and
        // it turns the surrounding comparison into a *total* expression,
        // unblocking decorrelation past it. An erroring constant (division
        // by zero) stays in place to keep erroring at runtime.
        Expr::Binary { op, left, right }
            if matches!(
                op,
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
            ) =>
        {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Literal(l), Expr::Literal(r)) => match arithmetic(*op, l, r) {
                    Ok(v) => {
                        rep.constants_folded += 1;
                        Some(Expr::Literal(v))
                    }
                    Err(_) => None,
                },
                _ => None,
            }
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => match expr.as_ref() {
            Expr::Literal(Value::Bool(b)) => {
                rep.constants_folded += 1;
                Some(Expr::Literal(Value::Bool(!b)))
            }
            _ => None,
        },
        // A global aggregate yields its one row over any input, so
        // `EXISTS` over it is TRUE; skipping the body needs it total.
        Expr::Sublink {
            kind: SublinkKind::Exists,
            plan,
            ..
        } if yields_one_row(plan) && plan_is_total(plan, Some(scopes)) => {
            rep.constants_folded += 1;
            Some(Expr::Literal(Value::Bool(true)))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The binder's selection pushdown
// ---------------------------------------------------------------------------

/// Pushes selection conjuncts towards the scans, in every operator's
/// children and in the plans of its sublinks — what the PostgreSQL planner
/// under the original Perm system does to both the original and the
/// rewritten query, and what the SQL binder does to every bound plan.
///
/// Conjuncts referencing only one side of a cross product / inner join move
/// into that side, conjuncts referencing both sides become the join
/// condition. Conjuncts containing sublinks are never moved, so the
/// provenance rewrite rules (which match on selections containing sublinks)
/// still see them. Left outer joins are left untouched (pushing through them
/// would change semantics). A conjunct moves onto a side only when every
/// column it reads names an attribute of that side alone ([`side_of`], the
/// fixpoint's side test too): a name ambiguous within a side counts as
/// present there, so the conjunct stays above, where evaluating it fails as
/// it should.
///
/// A rule of the one bottom-up rewrite ([`PlanRef::rewrite_up`]), so
/// operators without a selection at or below them are handed back as they
/// are. Everything after the provenance rewrite — including turning a
/// selection left directly above a cross product into a join — is
/// [`optimize`]'s.
pub fn push_down_selections(plan: Plan) -> Plan {
    PlanRef::new(plan)
        .rewrite_up(None, true, &mut |node, _| match &**node {
            Plan::Select { input, predicate } => {
                let conjuncts = split_conjuncts(predicate).into_iter().cloned().collect();
                let (pushed, residual) = push_into(input.clone(), conjuncts);
                Some(wrap_select(PlanRef::new(pushed), residual))
            }
            _ => None,
        })
        .into_plan()
}

/// Pushes the given conjuncts as deep into `plan` as allowed, returning the
/// rewritten plan and the conjuncts that could not be placed anywhere below.
fn push_into(plan: PlanRef, conjuncts: Vec<Expr>) -> (Plan, Vec<Expr>) {
    match plan.into_plan() {
        Plan::Select { input, predicate } => {
            let mut all = conjuncts;
            all.extend(split_conjuncts(&predicate).into_iter().cloned());
            push_into(input, all)
        }
        Plan::CrossProduct { left, right } => push_into_binary(left, right, None, conjuncts),
        Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            condition,
        } => push_into_binary(left, right, Some(condition), conjuncts),
        other => (other, conjuncts),
    }
}

/// Distributes conjuncts over the two sides of a cross product or inner
/// join. `existing_condition` is the join condition of an inner join (kept
/// in place), `None` for a cross product. A conjunct stays above when it
/// holds a sublink, reads no column (a constant predicate stays at the
/// top), or reads a column that does not name an attribute of exactly one
/// side (correlated, known to both sides, or ambiguous within one).
fn push_into_binary(
    left: PlanRef,
    right: PlanRef,
    existing_condition: Option<Expr>,
    conjuncts: Vec<Expr>,
) -> (Plan, Vec<Expr>) {
    let left_schema = left.schema();
    let right_schema = right.schema();
    let mut to_left = Vec::new();
    let mut to_right = Vec::new();
    let mut join_conjuncts = Vec::new();
    let mut residual = Vec::new();
    for conjunct in conjuncts {
        let side = match conjunct.has_sublink() {
            true => None,
            false => side_of(&conjunct.column_refs(), &left_schema, &right_schema),
        };
        match side {
            Some(Side::Left) => to_left.push(conjunct),
            Some(Side::Right) => to_right.push(conjunct),
            Some(Side::Both) => join_conjuncts.push(conjunct),
            None => residual.push(conjunct),
        }
    }

    let (left, left_rest) = push_into(left, to_left);
    let left = wrap_select(PlanRef::new(left), left_rest);
    let (right, right_rest) = push_into(right, to_right);
    let right = wrap_select(PlanRef::new(right), right_rest);

    let joined = (!join_conjuncts.is_empty()).then(|| conjunction(join_conjuncts));
    let plan = match existing_condition.into_iter().chain(joined).reduce(and) {
        None => Plan::CrossProduct { left, right },
        Some(condition) => Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            condition,
        },
    };
    (plan, residual)
}

// ---------------------------------------------------------------------------
// Rule: predicate pushdown extensions
// ---------------------------------------------------------------------------

/// Pushes selections through operators the binder's name-level pass
/// ([`push_down_selections`]) does not handle: projections (by substituting
/// item expressions for output names), `INTERSECT`/`EXCEPT` left branches,
/// semi/anti-join probe sides, and — conjunct by conjunct — the sides of
/// cross products and inner joins inside an already rewritten plan, and the
/// preserved side of a left outer join. A conjunct only moves when the
/// *whole* predicate is total, so the error set cannot change. Semi/anti
/// joins over a cross product move onto the factor they read, or — reading
/// both — become two inner joins. The rule of a bottom-up pass that enters
/// sublink plans: `outer` encloses the body the operator sits in.
fn pushdown(node: &Plan, outer: Option<&Scopes<'_>>, rep: &mut OptimizerReport) -> Option<PlanRef> {
    match node {
        Plan::Select { input, predicate } => push_select(input, predicate, outer, rep),
        Plan::Join {
            left,
            right,
            kind: kind @ (JoinKind::Semi | JoinKind::Anti),
            condition,
        } => push_semi_join(left, right, *kind, condition, outer, rep),
        _ => None,
    }
    .map(PlanRef::new)
}

fn select(input: impl Into<PlanRef>, predicate: Expr) -> Plan {
    Plan::Select {
        input: input.into(),
        predicate,
    }
}

/// `σ` over `conjuncts` on `input`, or `input` itself when there are none.
fn wrap_select(input: PlanRef, conjuncts: impl IntoIterator<Item = Expr>) -> PlanRef {
    let mut conjuncts = conjuncts.into_iter().peekable();
    if conjuncts.peek().is_none() {
        return input;
    }
    PlanRef::new(select(input, conjunction(conjuncts)))
}

/// `σ_predicate(input)`, pushed as far as [`push_select`] takes it.
fn pushed_select(
    input: &PlanRef,
    predicate: Expr,
    outer: Option<&Scopes<'_>>,
    rep: &mut OptimizerReport,
) -> Plan {
    push_select(input, &predicate, outer, rep).unwrap_or_else(|| select(input.clone(), predicate))
}

/// `true` when every one of `refs` resolves (unambiguously) in `schema`.
fn resolves_all(schema: &Schema, refs: &[(Option<Name>, Name)]) -> bool {
    refs.iter()
        .all(|&(q, n)| matches!(schema.try_resolve(q, n), Ok(Some(_))))
}

/// `σ_predicate(input)` with the selection pushed down; `None` when it stays
/// where it is. `outer` encloses the sublink body the selection sits in.
fn push_select(
    input: &PlanRef,
    predicate: &Expr,
    outer: Option<&Scopes<'_>>,
    rep: &mut OptimizerReport,
) -> Option<Plan> {
    if let Plan::Join {
        kind: JoinKind::LeftOuter,
        ..
    } = &**input
    {
        return push_onto_preserved_side(input, predicate, outer, rep);
    }
    if predicate.has_sublink() {
        // Sublink-bearing conjuncts stay put: moving one changes how often
        // the (expensive, operator-counted) sublink body runs, and
        // decorrelation wants to see them where they are. The sublink-free
        // ones beside them may still sink into a product below.
        return sink_conjuncts(input, predicate, outer, rep);
    }
    let out_schema = input.schema();
    // Each arm checks that the predicate is total, where it applies.
    let total = |e: &Expr| expr_is_total(e, &Scopes::new(&out_schema, outer));
    match &**input {
        // σ_p(Π_items(T)) → Π_items(σ_p'(T)) with output names substituted
        // by their defining expressions. Projection items are evaluated on
        // the filtered rows afterwards, so they must be total; for a
        // distinct projection the predicate additionally runs pre-dedup,
        // which is harmless because it is total and value-deterministic.
        Plan::Project {
            input: inner,
            items,
            distinct,
        } => {
            let inner_schema = inner.schema();
            let inner_chain = Scopes::new(&inner_schema, outer);
            // The cheap refusals first: a computed item (Gen's projections
            // have one) and a captured name (Gen's `P =ₙ chk` in a body,
            // where `P` names the body's own witness columns) each decide
            // at their first node.
            let items_total = items.iter().all(|i| expr_is_total(&i.expr, &inner_chain));
            let substituted = (items_total
                && passes_through(predicate, &out_schema, &inner_schema)
                && total(predicate))
            .then(|| substitute_through(predicate, &out_schema, items, &inner_schema))
            .flatten()
            .filter(|p| expr_is_total(p, &inner_chain))?;
            rep.predicates_pushed += 1;
            Some(Plan::Project {
                input: pushed_select(inner, substituted, outer, rep).into(),
                items: items.clone(),
                distinct: *distinct,
            })
        }
        // σ_p(L ∩ R) → σ_p(L) ∩ R and σ_p(L − R) → σ_p(L) − R: membership
        // of a row in the result is decided by the same row values the
        // predicate reads, so filtering the left branch first is bag-exact
        // and keeps the operator count flat (UNION would need the
        // predicate on both branches — one extra operator — and is
        // deliberately skipped).
        Plan::SetOp {
            op: op @ (SetOpKind::Intersect | SetOpKind::Except),
            all,
            left,
            right,
        } => {
            let left_schema = left.schema();
            let refs = local_refs(predicate.column_refs(), &out_schema, outer);
            (resolves_all(&left_schema, &refs)
                && expr_is_total(predicate, &Scopes::new(&left_schema, outer)))
            .then(|| {
                rep.predicates_pushed += 1;
                Plan::SetOp {
                    op: *op,
                    all: *all,
                    left: pushed_select(left, predicate.clone(), outer, rep).into(),
                    right: right.clone(),
                }
            })
        }
        // σ_p(L ⋉ R) → σ_p(L) ⋉ R (and ▷): the join emits left rows
        // verbatim, so a total predicate over them commutes with the join
        // and shrinks the probe side.
        Plan::Join {
            left,
            right,
            kind: kind @ (JoinKind::Semi | JoinKind::Anti),
            condition,
        } => {
            let left_schema = left.schema();
            let refs = local_refs(predicate.column_refs(), &out_schema, outer);
            (resolves_all(&left_schema, &refs)
                && expr_is_total(predicate, &Scopes::new(&left_schema, outer)))
            .then(|| {
                rep.predicates_pushed += 1;
                Plan::Join {
                    left: pushed_select(left, predicate.clone(), outer, rep).into(),
                    right: right.clone(),
                    kind: *kind,
                    condition: condition.clone(),
                }
            })
        }
        // σ_p(σ_q(T)) → σ_{q ∧ p}(T) for total, sublink-free `q`: conjuncts
        // that sink onto the same product factor one by one end up as one
        // selection (and keep sinking together).
        Plan::Select {
            input: inner,
            predicate: below,
        } if !below.has_sublink() && total(below) && total(predicate) => {
            rep.predicates_pushed += 1;
            Some(pushed_select(
                inner,
                and(below.clone(), predicate.clone()),
                outer,
                rep,
            ))
        }
        Plan::CrossProduct { .. }
        | Plan::Join {
            kind: JoinKind::Inner,
            ..
        } => sink_conjuncts(input, predicate, outer, rep),
        _ => None,
    }
}

/// `σ_{c ∧ rest}(L ⟕_θ R)` → `σ_rest(σ_c(L) ⟕_{θ[c := TRUE]} R)` for the
/// conjuncts `c` that read `L` alone: every pair the join then sees has `c`
/// TRUE, so the copies of `c` in `θ` are constants.
fn push_onto_preserved_side(
    join: &PlanRef,
    predicate: &Expr,
    outer: Option<&Scopes<'_>>,
    rep: &mut OptimizerReport,
) -> Option<Plan> {
    let Plan::Join {
        left,
        right,
        condition,
        ..
    } = &**join
    else {
        unreachable!("called on a left outer join");
    };
    let conjuncts = split_conjuncts(predicate);
    let (moves, assumed) = preserved_side_moves(left, right, condition, &conjuncts, outer, rep)?;
    // Sublink-free conjuncts go first: they keep sinking through
    // projections, where a predicate that holds a sublink stops.
    let (mut kept, mut free, mut bearing) = (Vec::new(), Vec::new(), Vec::new());
    for (c, moves) in conjuncts.into_iter().cloned().zip(moves) {
        match (moves, c.has_sublink()) {
            (false, _) => kept.push(c),
            (true, false) => free.push(c),
            (true, true) => bearing.push(c),
        }
    }
    rep.preserved_side_pushed += (free.len() + bearing.len()) as u64;
    let mut left = left.clone();
    for moved in [free, bearing] {
        if !moved.is_empty() {
            left = pushed_select(&left, conjunction(moved), outer, rep).into();
        }
    }
    let join = Plan::Join {
        left,
        right: right.clone(),
        kind: JoinKind::LeftOuter,
        condition: assumed,
    };
    Some(if kept.is_empty() {
        join
    } else {
        select(join, conjunction(kept))
    })
}

/// Which `conjuncts` of a selection over `left ⟕_condition right` move onto
/// `left`, and the condition with them assumed; `None` when none does. The
/// conjuncts, the condition and `right` must be total. Sublink-bearing
/// conjuncts move only when that leaves the condition free of sublinks —
/// otherwise the join keeps its probe per pair, and the selection its
/// shape.
fn preserved_side_moves(
    left: &PlanRef,
    right: &PlanRef,
    condition: &Expr,
    conjuncts: &[&Expr],
    outer: Option<&Scopes<'_>>,
    rep: &mut OptimizerReport,
) -> Option<(Vec<bool>, Expr)> {
    let (ls, rs) = (left.schema(), right.schema());
    let both = ls.concat(&rs);
    let mut moves: Vec<bool> = conjuncts
        .iter()
        .map(|c| {
            let refs = local_refs(free_expr_columns(c, &Schema::empty()), &both, outer);
            side_of(&refs, &ls, &rs) == Some(Side::Left)
        })
        .collect();
    let scope = Scopes::new(&both, outer);
    let total = moves.contains(&true)
        && conjuncts.iter().all(|c| expr_is_total(c, &scope))
        && expr_is_total(condition, &scope)
        && is_total_under(right, outer);
    if !total {
        return None;
    }
    let assume = |moves: &[bool], rep: &mut OptimizerReport| {
        let assumed = conjuncts
            .iter()
            .zip(moves)
            .filter(|(_, moves)| **moves)
            .flat_map(|(c, _)| decorrelate::facts_of(c))
            .fold(condition.clone(), |on, fact| {
                decorrelate::assume_in_expr(&on, &fact, rep).unwrap_or(on)
            });
        // With the join's scope at hand `C' ∨ TRUE` folds here, not a pass
        // later.
        fold_expr(&assumed, &scope, rep).unwrap_or(assumed)
    };
    let snapshot = *rep;
    let assumed = assume(&moves, rep);
    if !assumed.has_sublink() {
        return Some((moves, assumed));
    }
    *rep = snapshot;
    for (c, moves) in conjuncts.iter().zip(&mut moves) {
        *moves &= !c.has_sublink();
    }
    if !moves.contains(&true) {
        return None;
    }
    let assumed = assume(&moves, rep);
    Some((moves, assumed))
}

/// Moves the sublink-free conjuncts of a total predicate onto the side of
/// the cross product / inner join (reached through semi/anti probe sides)
/// that resolves them; whatever cannot move stays in a selection on top.
/// `None` when nothing moves.
fn sink_conjuncts(
    input: &PlanRef,
    predicate: &Expr,
    outer: Option<&Scopes<'_>>,
    rep: &mut OptimizerReport,
) -> Option<Plan> {
    if !reaches_product(input) {
        return None;
    }
    let schema = input.schema();
    if !expr_is_total(predicate, &Scopes::new(&schema, outer)) {
        return None;
    }
    let mut input = input.clone();
    let mut kept = Vec::new();
    let mut moved = 0;
    for c in split_conjuncts(predicate) {
        let refs = local_refs(c.column_refs(), &schema, outer);
        if c.has_sublink() || refs.is_empty() {
            kept.push(c.clone());
            continue;
        }
        match sink_filter(input, c, &refs, outer, rep) {
            Ok(sunk) => {
                input = sunk;
                moved += 1;
            }
            Err(unchanged) => {
                input = unchanged;
                kept.push(c.clone());
            }
        }
    }
    if moved == 0 {
        return None;
    }
    rep.predicates_pushed += moved;
    Some(if kept.is_empty() {
        input.into_plan()
    } else {
        select(input, conjunction(kept))
    })
}

/// `true` when a cross product or inner join is reached from `input`
/// through semi/anti probe sides.
fn reaches_product(input: &Plan) -> bool {
    let mut probe = input;
    while let Plan::Join {
        left,
        kind: JoinKind::Semi | JoinKind::Anti,
        ..
    } = probe
    {
        probe = left;
    }
    matches!(
        probe,
        Plan::CrossProduct { .. }
            | Plan::Join {
                kind: JoinKind::Inner,
                ..
            }
    )
}

/// Places `σ_c` on the one side of a product below `plan` that resolves
/// `refs`, or hands `plan` back.
fn sink_filter(
    plan: PlanRef,
    c: &Expr,
    refs: &[(Option<Name>, Name)],
    outer: Option<&Scopes<'_>>,
    rep: &mut OptimizerReport,
) -> Result<PlanRef, PlanRef> {
    match &*plan {
        Plan::Join {
            left,
            right,
            kind: kind @ (JoinKind::Semi | JoinKind::Anti),
            condition,
        } => match sink_filter(left.clone(), c, refs, outer, rep) {
            Ok(left) => Ok(PlanRef::new(Plan::Join {
                left,
                right: right.clone(),
                kind: *kind,
                condition: condition.clone(),
            })),
            Err(_) => Err(plan),
        },
        product @ (Plan::CrossProduct { left, right }
        | Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            ..
        }) => {
            let (ls, rs) = (left.schema(), right.schema());
            // A join condition then runs on fewer pairs: it must be total.
            let condition_total = match product {
                Plan::Join { condition, .. } => {
                    !condition.has_sublink()
                        && expr_is_total(condition, &Scopes::new(&ls.concat(&rs), outer))
                }
                _ => true,
            };
            let onto_left = match side_of(refs, &ls, &rs) {
                Some(Side::Left) if condition_total => true,
                Some(Side::Right) if condition_total => false,
                _ => return Err(plan),
            };
            let mut is_left = true;
            let pushed = product.map_children(|side| {
                let target = is_left == onto_left;
                is_left = false;
                if target {
                    pushed_select(side, c.clone(), outer, rep).into()
                } else {
                    side.clone()
                }
            });
            Ok(PlanRef::new(pushed.expect("the target side changed")))
        }
        _ => Err(plan),
    }
}

/// A semi/anti join over a cross product: onto the factor its condition
/// reads, or — a semi join reading both — through the product. `None` when
/// the join stays where it is.
fn push_semi_join(
    left: &PlanRef,
    right: &PlanRef,
    kind: JoinKind,
    condition: &Expr,
    outer: Option<&Scopes<'_>>,
    rep: &mut OptimizerReport,
) -> Option<Plan> {
    if !matches!(**left, Plan::CrossProduct { .. }) || condition.has_sublink() {
        return None;
    }
    let (left_schema, right_schema) = (left.schema(), right.schema());
    let probe_refs = local_refs(
        free_expr_columns(condition, &right_schema),
        &left_schema,
        outer,
    );
    if probe_refs.is_empty() {
        return None;
    }
    // On a factor the build side runs whenever the factor has rows, and the
    // condition on the factor's rows: unobservable when both are total, or
    // when the factors left behind cannot be empty.
    let both = left_schema.concat(&right_schema);
    let total =
        expr_is_total(condition, &Scopes::new(&both, outer)) && is_total_under(right, outer);
    let join = SemiJoin {
        build: right,
        kind,
        condition,
        probe_refs,
        total,
    };
    let pushed = join.sink(left, rep)?;
    // A product on top: the join went onto one of its factors; otherwise
    // two inner joins under a projection (counted where expanded).
    if let Plan::CrossProduct { .. } = pushed {
        rep.joins_pushed += 1;
    }
    Some(pushed)
}

/// A semi/anti join looking for the lowest cross-product factor to run on.
struct SemiJoin<'a> {
    build: &'a PlanRef,
    kind: JoinKind,
    condition: &'a Expr,
    /// The condition's references to the probe side.
    probe_refs: Vec<(Option<Name>, Name)>,
    /// Neither the condition nor the build side can fail.
    total: bool,
}

impl SemiJoin<'_> {
    fn over(&self, probe: &PlanRef) -> Plan {
        Plan::Join {
            left: probe.clone(),
            right: self.build.clone(),
            kind: self.kind,
            condition: self.condition.clone(),
        }
    }

    /// The join on the lowest factor below `probe` that resolves the probe
    /// references, or on `probe` itself.
    fn sink_or_over(&self, probe: &PlanRef, rep: &mut OptimizerReport) -> Plan {
        self.sink(probe, rep).unwrap_or_else(|| self.over(probe))
    }

    /// Descends through cross products towards the factor that resolves
    /// the probe references and joins there; `None` when the join stays on
    /// `probe`.
    fn sink(&self, probe: &PlanRef, rep: &mut OptimizerReport) -> Option<Plan> {
        let Plan::CrossProduct { left, right } = &**probe else {
            return None;
        };
        match side_of(&self.probe_refs, &left.schema(), &right.schema()) {
            Some(Side::Left) if self.total || provably_nonempty(right) => {
                Some(Plan::CrossProduct {
                    left: self.sink_or_over(left, rep).into(),
                    right: right.clone(),
                })
            }
            Some(Side::Right) if self.total || provably_nonempty(left) => {
                Some(Plan::CrossProduct {
                    left: left.clone(),
                    right: self.sink_or_over(right, rep).into(),
                })
            }
            Some(Side::Both) | None if self.kind == JoinKind::Semi && self.total => {
                SemiExpansion::plan(probe, &self.build.schema(), self.condition).map(|expansion| {
                    rep.semi_joins_expanded += 1;
                    expansion.build(left.clone(), right.clone(), self.build.clone())
                })
            }
            _ => None,
        }
    }
}

/// How `(L × R) ⋉_{θL ∧ θR} S` splits into
/// `Π_{L,R}(L ⋈_{θL} (R ⋈_{θR} δ(Π_keys(S))))`.
struct SemiExpansion {
    on_l: Vec<Expr>,
    on_r: Vec<Expr>,
    /// The columns of `S` the conjuncts compare against, each once.
    keys: Vec<(Option<Name>, Name)>,
    /// Pass-through items restoring the `L × R` schema on top.
    restored: Vec<ProjectItem>,
}

impl SemiExpansion {
    /// `Some` when every conjunct of `condition` is a column equality
    /// (`=` or `=ₙ`) between one of the factors and `S`, both factors are
    /// compared, and every column keeps naming one column in the wider
    /// scope of the two joins.
    fn plan(product: &PlanRef, ss: &Schema, condition: &Expr) -> Option<SemiExpansion> {
        let Plan::CrossProduct { left, right } = &**product else {
            return None;
        };
        let (ls, rs, lrs) = (left.schema(), right.schema(), product.schema());
        if !decorrelate::unambiguous(&lrs.concat(ss)) {
            return None;
        }
        let mut expansion = SemiExpansion {
            on_l: Vec::new(),
            on_r: Vec::new(),
            keys: Vec::new(),
            restored: decorrelate::passthrough_items(&lrs)?,
        };
        for c in split_conjuncts(condition) {
            let Expr::Binary {
                op: BinaryOp::Cmp(CompareOp::Eq) | BinaryOp::NullSafeEq,
                left: a,
                right: b,
            } = c
            else {
                return None;
            };
            let (Expr::Column { .. }, Expr::Column { .. }) = (a.as_ref(), b.as_ref()) else {
                return None;
            };
            let (a, b) = (a.column_refs(), b.column_refs());
            let (factor, key) = if resolves_all(ss, &b) {
                (a, b)
            } else if resolves_all(ss, &a) {
                (b, a)
            } else {
                return None;
            };
            if resolves_all(&ls, &factor) {
                expansion.on_l.push(c.clone());
            } else if resolves_all(&rs, &factor) {
                expansion.on_r.push(c.clone());
            } else {
                return None;
            }
            if !expansion.keys.contains(&key[0]) {
                expansion.keys.extend(key);
            }
        }
        (!expansion.on_l.is_empty() && !expansion.on_r.is_empty()).then_some(expansion)
    }

    /// Builds the two inner joins. The caller has checked that `s` is
    /// total: it now runs whether or not `L × R` has rows.
    fn build(self, l: PlanRef, r: PlanRef, s: PlanRef) -> Plan {
        let distinct_keys = match &*s {
            // A build side that projects exactly the keys dedups in place.
            Plan::Project {
                input,
                items,
                distinct: false,
            } if items.len() == self.keys.len() => Plan::Project {
                input: input.clone(),
                items: items.clone(),
                distinct: true,
            },
            _ => Plan::Project {
                input: s,
                items: self
                    .keys
                    .into_iter()
                    .map(|(qualifier, name)| ProjectItem {
                        expr: Expr::Column { qualifier, name },
                        alias: name,
                        qualifier,
                    })
                    .collect(),
                distinct: true,
            },
        };
        Plan::Project {
            input: PlanRef::new(Plan::Join {
                left: l,
                right: PlanRef::new(Plan::Join {
                    left: r,
                    right: PlanRef::new(distinct_keys),
                    kind: JoinKind::Inner,
                    condition: conjunction(self.on_r),
                }),
                kind: JoinKind::Inner,
                condition: conjunction(self.on_l),
            }),
            items: self.restored,
            distinct: false,
        }
    }
}

/// Rewrites `predicate` (over a projection's output schema) into an
/// equivalent predicate over the projection's *input* (schema `input`) by
/// substituting each output-column reference with its defining item
/// expression. A reference neither schema knows stays as it is: below the
/// projection it resolves where it did, in an enclosing scope. `None` when a
/// reference is ambiguous in the projection schema, or names a column of the
/// input that the projection does not pass on — the input would capture it.
fn substitute_through(
    predicate: &Expr,
    proj_schema: &Schema,
    items: &[ProjectItem],
    input: &Schema,
) -> Option<Expr> {
    passes_through(predicate, proj_schema, input).then(|| substitute(predicate, proj_schema, items))
}

/// `expr` with every column that resolves in `proj_schema` replaced by the
/// item that defines it; the other columns stay as they are.
fn substitute(expr: &Expr, proj_schema: &Schema, items: &[ProjectItem]) -> Expr {
    expr.rewrite(&mut |e| match e {
        Expr::Column { qualifier, name } => match proj_schema.try_resolve(*qualifier, *name) {
            Ok(Some(idx)) => Some(items[idx].expr.clone()),
            _ => None,
        },
        _ => None,
    })
    .unwrap_or_else(|| expr.clone())
}

/// `true` when [`substitute_through`] can move `predicate` below a
/// projection: every column it reads resolves in the projection's output,
/// or in neither the output nor the input. Stops at the first that does
/// not.
fn passes_through(predicate: &Expr, proj_schema: &Schema, input: &Schema) -> bool {
    predicate.all(&mut |e| match e {
        Expr::Column { qualifier, name } => {
            let (q, n) = (*qualifier, *name);
            match proj_schema.try_resolve(q, n) {
                Ok(Some(_)) => true,
                Ok(None) => matches!(input.try_resolve(q, n), Ok(None)),
                Err(_) => false,
            }
        }
        _ => true,
    })
}

// ---------------------------------------------------------------------------
// Rule: projection pruning
// ---------------------------------------------------------------------------

/// What the operators above a subtree read from it: every column reference
/// of `reader`'s expressions ([`walk_column_refs`]), then what `above`
/// needs. Chained, not copied.
#[derive(Clone, Copy)]
struct Needed<'a> {
    reader: &'a Plan,
    above: Option<&'a Needed<'a>>,
}

impl<'a> Needed<'a> {
    /// Calls `f` on every reference in the chain.
    fn each(&self, f: &mut impl FnMut(Option<Name>, Name)) {
        let mut link = Some(self);
        while let Some(needed) = link {
            needed
                .reader
                .walk_expressions(&mut |e| walk_column_refs(e, &mut *f));
            link = needed.above;
        }
    }
}

/// `true` when the reference `q.n` could resolve to `item`: a loose,
/// ambiguity-preserving match — a projection item is required when any
/// needed reference could resolve to it, so two same-named items are both
/// kept, and a reference that was ambiguous (a runtime error) stays
/// ambiguous.
fn could_read(q: Option<Name>, n: Name, item: &ProjectItem) -> bool {
    n.eq_folded(item.alias)
        && match (q, item.qualifier) {
            (Some(q), Some(iq)) => q.eq_folded(iq),
            _ => true,
        }
}

/// Top-down liveness pass: narrows non-distinct projections to the columns
/// something above actually references. `required == None` means "every
/// column" — the root (whose positional layout the provenance descriptor
/// depends on), set-operation branches (positional arity contract) and
/// sublink bodies keep their full width.
fn prune_pass(node: &PlanRef, required: Option<&Needed<'_>>, rep: &mut OptimizerReport) -> PlanRef {
    let pruned = match (&**node, required) {
        (
            Plan::Project {
                input,
                items,
                distinct: false,
            },
            Some(req),
        ) => {
            // One walk of the chain marks every item a reference above
            // could read.
            let mut keep = vec![false; items.len()];
            req.each(&mut |q, n| {
                for (keep, item) in keep.iter_mut().zip(items) {
                    *keep |= could_read(q, n, item);
                }
            });
            let input_schema = input.schema();
            let scope = Scopes::new(&input_schema, None);
            for (keep, item) in keep.iter_mut().zip(items) {
                // A non-total item's evaluation errors are observable even
                // if nothing reads it.
                *keep = *keep || !expr_is_total(&item.expr, &scope);
            }
            let kept = keep.iter().filter(|k| **k).count().max(1);
            (kept < items.len()).then(|| {
                rep.projections_pruned += 1;
                let mut kept: Vec<ProjectItem> = items
                    .iter()
                    .zip(&keep)
                    .filter(|(_, keep)| **keep)
                    .map(|(item, _)| item.clone())
                    .collect();
                if kept.is_empty() {
                    kept.push(items[0].clone());
                }
                Plan::Project {
                    input: input.clone(),
                    items: kept,
                    distinct: false,
                }
            })
        }
        _ => None,
    };
    let plan = pruned.as_ref().unwrap_or(node);
    // Every column reference this operator's expressions need from below,
    // including references escaping embedded sublink plans.
    let own = Some(Needed {
        reader: plan,
        above: None,
    });
    let with_own = required.map(|above| Needed {
        reader: plan,
        above: Some(above),
    });
    let passed = required.copied();
    // What the (left, right) children must keep.
    let (left_req, right_req) = match plan {
        Plan::Scan { .. } | Plan::Values { .. } => (None, None),
        Plan::Project { .. } | Plan::Aggregate { .. } => (own, None),
        Plan::Select { .. } | Plan::Sort { .. } => (with_own, None),
        // Both sides contribute to the output positionally via concat;
        // pass the requirement through to both (loose name matching keeps
        // anything either side might satisfy).
        Plan::CrossProduct { .. } => (passed, passed),
        Plan::Limit { .. } => (passed, None),
        // Semi/anti joins emit left rows only: the right side exists
        // purely for the condition.
        Plan::Join { kind, .. } if kind.left_only_output() => (with_own, own),
        Plan::Join { .. } => (with_own, with_own),
        // Branch outputs correspond positionally; pruning either would
        // break the arity contract.
        Plan::SetOp { .. } => (None, None),
    };
    let mut is_left = true;
    let mapped = plan
        .map_children(|child| {
            let req = if is_left { left_req } else { right_req };
            is_left = false;
            prune_pass(child, req.as_ref(), rep)
        })
        .or(pruned);
    let mapped = mapped
        .as_ref()
        .unwrap_or(node)
        .map_sublinks(|p| prune_pass(p, None, rep))
        .or(mapped);
    node.or_changed(mapped)
}

// ---------------------------------------------------------------------------
// Rules: projection composition and sort pushdown
// ---------------------------------------------------------------------------

/// Composes a non-distinct projection with the one below it, or moves a
/// `Sort` below the order-preserving operators under it; the rule of a
/// bottom-up pass, once, that enters sublink plans.
fn order(node: &Plan, rep: &mut OptimizerReport) -> Option<PlanRef> {
    match node {
        Plan::Project {
            input,
            items,
            distinct: false,
        } => match &**input {
            Plan::Project {
                input: inner,
                items: below,
                distinct: false,
            } => compose_items(items, below, &inner.schema()).map(|items| {
                rep.projections_composed += 1;
                Plan::Project {
                    input: inner.clone(),
                    items,
                    distinct: false,
                }
            }),
            _ => None,
        },
        Plan::Sort { input, keys } => sink_sort(input, keys, rep),
        _ => None,
    }
    .map(PlanRef::new)
}

/// The items of `Π_above(Π_below(X))` as one projection over `X` (schema
/// `input`), under `above`'s aliases and qualifiers. `None` when an item
/// carries a sublink, `above` reads something `below` does not define, a
/// computed item of `below` would run twice, or an item of `below` that can
/// fail would stop running on every row — `above` drops it, or reads it
/// inside an expression that may shield it (`CASE`, `AND`).
fn compose_items(
    above: &[ProjectItem],
    below: &[ProjectItem],
    input: &Schema,
) -> Option<Vec<ProjectItem>> {
    if above.iter().chain(below).any(|i| i.expr.has_sublink()) {
        return None;
    }
    let mid = ProjectItem::schema_of(below);
    // How `above` reads each item of `below`: how often, and whether as an
    // item of its own (which runs on every row).
    let mut reads = vec![0usize; below.len()];
    let mut passed_through = vec![false; below.len()];
    let resolved = above.iter().all(|item| {
        item.expr.all(&mut |e| match e {
            Expr::Column { qualifier, name } => match mid.try_resolve(*qualifier, *name) {
                Ok(Some(idx)) => {
                    reads[idx] += 1;
                    passed_through[idx] |= matches!(item.expr, Expr::Column { .. });
                    true
                }
                _ => false,
            },
            _ => true,
        })
    });
    if !resolved {
        return None;
    }
    for (j, item) in below.iter().enumerate() {
        let trivial = matches!(
            item.expr,
            Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_)
        );
        if (reads[j] > 1 && !trivial)
            || (!passed_through[j] && !expr_is_total(&item.expr, &Scopes::new(input, None)))
        {
            return None;
        }
    }
    // Every reference of `above` resolved in `mid` above.
    let composed = above.iter().map(|item| ProjectItem {
        expr: substitute(&item.expr, &mid, below),
        alias: item.alias,
        qualifier: item.qualifier,
    });
    Some(composed.collect())
}

/// `Sort_keys(input)` with the sort moved below every projection and onto
/// the left side of every join and cross product it may cross — the
/// operators that emit their (left) input's rows in input order, each with
/// its matches in an order that does not depend on it, so that the stable
/// sort commutes with them as a *list*. Never through `σ` (it would sort
/// the rows the selection drops), `γ`, `Π_S`, set operations or `Limit`.
/// `None` when the sort stays where it is.
fn sink_sort(input: &PlanRef, keys: &[SortKey], rep: &mut OptimizerReport) -> Option<Plan> {
    let pushed = match &**input {
        _ if keys.iter().any(|k| k.expr.has_sublink()) => None,
        Plan::Project {
            input: inner,
            items,
            distinct: false,
        } => keys_below_projection(keys, items, &inner.schema()),
        Plan::CrossProduct { left, right } => {
            keys_read_left(keys, &left.schema(), Some(&right.schema())).then(|| keys.to_vec())
        }
        Plan::Join {
            left, right, kind, ..
        } => {
            let right = (!kind.left_only_output()).then(|| right.schema());
            keys_read_left(keys, &left.schema(), right.as_deref()).then(|| keys.to_vec())
        }
        _ => None,
    }?;
    rep.sorts_pushed += 1;
    // The first child is the projection's input, the join's left side.
    let mut below = Some(pushed);
    input.map_children(|child| match below.take() {
        Some(keys) => PlanRef::new(sink_sort(child, &keys, rep).unwrap_or_else(|| Plan::Sort {
            input: child.clone(),
            keys,
        })),
        None => child.clone(),
    })
}

/// The keys of a sort over `Π_items(X)` as keys over `X` (schema `input`):
/// output names replaced by their defining expressions. The keys then run
/// before the items do, and a `Limit` above may stream the items over a
/// prefix of the sorted rows only, so both must be total; a sublink item
/// stays where the rewrite put it.
fn keys_below_projection(
    keys: &[SortKey],
    items: &[ProjectItem],
    input: &Schema,
) -> Option<Vec<SortKey>> {
    let scope = Scopes::new(input, None);
    if !items
        .iter()
        .all(|i| !i.expr.has_sublink() && expr_is_total(&i.expr, &scope))
    {
        return None;
    }
    let out = ProjectItem::schema_of(items);
    keys.iter()
        .map(|k| {
            let expr = substitute_through(&k.expr, &out, items, input)?;
            expr_is_total(&expr, &scope).then_some(SortKey {
                expr,
                ascending: k.ascending,
            })
        })
        .collect()
}

/// `true` when every key is total over the output of a join of `left` with
/// `right` (`None`: a semi/anti join, which emits `left` alone) and reads
/// columns of `left` only. `left` is a prefix of the output, so a column
/// that names one attribute of the output and is known to `left` sits at
/// the same position in both. The keys then run on the left rows the join
/// drops as well.
fn keys_read_left(keys: &[SortKey], left: &Schema, right: Option<&Schema>) -> bool {
    let joined;
    let out = match right {
        Some(right) => {
            joined = left.concat(right);
            Scopes::new(&joined, None)
        }
        None => Scopes::new(left, None),
    };
    keys.iter()
        .all(|k| expr_is_total(&k.expr, &out) && resolves_all(left, &k.expr.column_refs()))
}

// ---------------------------------------------------------------------------
// Rule: selection fusion
// ---------------------------------------------------------------------------

/// A selection directly above a cross product as an inner join on its
/// predicate, a sublink-free one directly above an inner join as part of
/// its condition; the rule of a bottom-up pass, once, last, that enters
/// sublink plans.
fn fuse(node: &Plan, rep: &mut OptimizerReport) -> Option<PlanRef> {
    match node {
        Plan::Select { input, predicate } => match &**input {
            Plan::CrossProduct { left, right } => Some((left, right, predicate.clone())),
            Plan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                condition,
            } if !predicate.has_sublink() => {
                Some((left, right, and(condition.clone(), predicate.clone())))
            }
            _ => None,
        },
        _ => None,
    }
    .map(|(left, right, condition)| {
        rep.selections_fused += 1;
        PlanRef::new(Plan::Join {
            left: left.clone(),
            right: right.clone(),
            kind: JoinKind::Inner,
            condition,
        })
    })
}

#[cfg(test)]
#[path = "../tests/common/shapes.rs"]
mod shapes;

#[cfg(test)]
mod tests {
    use super::shapes::*;
    use super::*;
    use perm_algebra::builder::{
        all_sublink, and, binary, cmp, col, count_star, eq, exists_sublink, lit, or, qcol,
        PlanBuilder,
    };
    use perm_storage::{Database, Relation, Schema};

    fn contains(plan: &Plan, pred: &dyn Fn(&Plan) -> bool) -> bool {
        pred(plan) || plan.children().iter().any(|c| contains(c, pred))
    }

    /// `e` with the plan of every sublink replaced by one empty relation.
    fn without_sublink_plans(e: &Expr) -> Expr {
        let blank = PlanRef::new(Plan::Values {
            schema: Schema::empty(),
            rows: Vec::new(),
        });
        e.rewrite(&mut |e| match e {
            Expr::Sublink {
                kind,
                test_expr,
                op,
                ..
            } => Some(Expr::Sublink {
                kind: *kind,
                test_expr: test_expr.clone(),
                op: *op,
                plan: blank.clone(),
            }),
            _ => None,
        })
        .unwrap_or_else(|| e.clone())
    }

    fn left_outer_condition(plan: &Plan) -> Option<&Expr> {
        match plan {
            Plan::Join {
                kind: JoinKind::LeftOuter,
                condition,
                ..
            } => Some(condition),
            other => other.children().into_iter().find_map(left_outer_condition),
        }
    }

    #[test]
    fn decorrelates_correlated_exists_into_semi_join() {
        let db = db();
        let plan = correlated_exists(&db);
        let (optimized, rep) = optimize(&plan);
        assert_eq!(rep.sublinks_decorrelated, 1);
        fn has_semi(p: &Plan) -> bool {
            if let Plan::Join {
                kind: JoinKind::Semi,
                ..
            } = p
            {
                return true;
            }
            p.children().iter().any(|c| has_semi(c))
        }
        assert!(has_semi(&optimized), "expected a semi join:\n{optimized:?}");
    }

    #[test]
    fn decorrelates_not_exists_into_anti_join() {
        let db = db();
        let (_, rep) = optimize(&not_exists(&db));
        assert_eq!(rep.sublinks_decorrelated, 1);
    }

    #[test]
    fn decorrelates_any_equality_into_semi_join() {
        let db = db();
        let (_, rep) = optimize(&any_equality(&db));
        assert_eq!(rep.sublinks_decorrelated, 1);
    }

    #[test]
    fn decorrelates_exists_with_star_projection() {
        let db = db();
        let (_, rep) = optimize(&exists_with_star(&db));
        assert_eq!(rep.sublinks_decorrelated, 1);
    }

    #[test]
    fn falls_back_on_all_sublinks() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "r2")
            .unwrap()
            .project_columns(&["b"])
            .build();
        let plan = PlanBuilder::scan(&db, "r1")
            .unwrap()
            .select(all_sublink(qcol("r1", "a"), CompareOp::Lt, sub))
            .build();
        let (optimized, rep) = optimize(&plan);
        assert_eq!(rep.sublinks_decorrelated, 0);
        assert_eq!(optimized, plan);
    }

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        let db = db();
        let plan = correlated_exists(&db);
        let (optimized, _) = optimize(&plan);
        assert_eq!(plan_fingerprint(&plan), plan_fingerprint(&plan));
        assert_ne!(plan_fingerprint(&plan), plan_fingerprint(&optimized));
    }

    #[test]
    fn prunes_unused_projection_columns() {
        let db = db();
        let (_, rep) = optimize(&narrowed_projection(&db));
        assert!(rep.projections_pruned >= 1, "{rep:?}");
    }

    #[test]
    fn gen_shaped_exists_becomes_hash_joins_without_a_cross_product() {
        let db = db();
        let (optimized, rep) = optimize(&gen_shaped(&db, false, hoistable()));
        // `C` implies the empty-sublink disjunct away, both sublinks become
        // semi joins, `C`'s moves onto `r1`, the membership one goes
        // through the product.
        assert_eq!(rep.sublinks_remaining, 0, "{}", rep.summary());
        assert_eq!(rep.sublinks_decorrelated, 2);
        assert_eq!(rep.disjunctions_split, 0);
        assert_eq!((rep.joins_pushed, rep.semi_joins_expanded), (1, 1));
        assert!(rep.sublinks_implied >= 1);
        assert!(!contains(&optimized, &|p| matches!(
            p,
            Plan::CrossProduct { .. }
        )));
    }

    #[test]
    fn gen_shaped_not_exists_splits_into_a_union_of_join_plans() {
        let db = db();
        let (optimized, rep) = optimize(&gen_shaped(&db, true, hoistable()));
        assert_eq!(rep.disjunctions_split, 1, "{}", rep.summary());
        assert_eq!(rep.sublinks_remaining, 0);
        assert!(contains(&optimized, &|p| matches!(
            p,
            Plan::SetOp {
                op: SetOpKind::Union,
                all: true,
                ..
            }
        )));
        // `P =ₙ NULL` reaches the CrossBase side of the second branch.
        assert!(rep.predicates_pushed >= 1);
    }

    #[test]
    fn a_selection_the_new_rules_cannot_finish_keeps_its_old_shape() {
        // The membership body correlates through arithmetic, which no rule
        // hoists: the split must not fire, the implication must not stick,
        // and only `C` decorrelates — the disjunction stays as written.
        let db = db();
        let plan = gen_shaped(&db, true, unhoistable());
        let Plan::Select { predicate, .. } = &plan else {
            panic!("gen_shaped builds a selection");
        };
        let disjunction = split_conjuncts(predicate)[1].clone();
        let (optimized, rep) = optimize(&plan);
        assert_eq!(rep.disjunctions_split, 0);
        assert_eq!(rep.sublinks_implied, 0);
        assert_eq!(rep.sublinks_decorrelated, 0);
        // The selection stays over the product — which the last step then
        // runs as one join on the predicate as written, up to the sublink
        // bodies, where the pushdown moved each selection below its `Π`.
        assert_eq!(rep.selections_fused, 1, "{}", rep.summary());
        let disjunction = without_sublink_plans(&disjunction);
        assert!(
            contains(&optimized, &|p| matches!(
                p,
                Plan::Join { kind: JoinKind::Inner, condition, .. }
                    if split_conjuncts(condition)
                        .into_iter()
                        .any(|c| without_sublink_plans(c) == disjunction)
            )),
            "{}",
            perm_algebra::display::explain(&optimized)
        );
        assert!(!contains(&optimized, &|p| matches!(
            p,
            Plan::CrossProduct { .. }
        )));
    }

    #[test]
    fn grouped_aggregate_body_keeps_the_empty_group() {
        let db = db();
        let (_, rep) = optimize(&empty_group_exists(&db));
        assert_eq!(rep.aggregates_grouped, 1, "{}", rep.summary());
        assert_eq!(rep.sublinks_remaining, 0);
    }

    #[test]
    fn total_conjuncts_sink_onto_cross_product_factors() {
        let db = db();
        let (optimized, rep) = optimize(&product_with_factor_conjuncts(&db));
        assert_eq!(rep.predicates_pushed, 2, "{}", rep.summary());
        // The two-sided conjunct stays on top of the product, and the last
        // step makes the pair one join on it.
        assert_eq!(rep.selections_fused, 1, "{}", rep.summary());
        let Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            condition,
        } = &optimized
        else {
            panic!("the two-sided conjunct joins the factors:\n{optimized:?}");
        };
        assert_eq!(split_conjuncts(condition).len(), 1);
        assert!(matches!(**left, Plan::Select { .. }) && matches!(**right, Plan::Select { .. }));
    }

    #[test]
    fn an_established_conjunct_moves_below_the_outer_join_and_collapses_its_condition() {
        let db = db();
        let (optimized, rep) = optimize(&left_shaped(&db, uncorrelated_any(&db), None));
        assert_eq!(
            (rep.preserved_side_pushed, rep.sublinks_implied),
            (1, 1),
            "{}",
            rep.summary()
        );
        assert!(
            rep.summary().contains("outer-pushdown×1"),
            "{}",
            rep.summary()
        );
        assert_eq!(
            left_outer_condition(&optimized),
            Some(&eq(qcol("r1", "a"), col("sb")))
        );
        assert!(
            matches!(optimized, Plan::Join { .. }),
            "no selection is left on top"
        );

        // Rule T1's form: `ALL` flips `Jsub`, which folds to TRUE; the
        // then-unused item is pruned under the projection on top.
        let (optimized, rep) = optimize(&t1_shaped(&db));
        assert_eq!(rep.preserved_side_pushed, 1, "{}", rep.summary());
        assert_eq!(left_outer_condition(&optimized), Some(&lit(true)));
        assert!(
            !contains(&optimized, &|p| matches!(
                p,
                Plan::Project { items, .. } if items.iter().any(|i| &*i.alias == "v")
            )),
            "{}",
            perm_algebra::display::explain(&optimized)
        );
    }

    #[test]
    fn only_conjuncts_reading_the_preserved_side_move() {
        let db = db();
        let (optimized, rep) = optimize(&mixed_sides(&db));
        assert_eq!(rep.preserved_side_pushed, 1, "{}", rep.summary());
        let Plan::Select { predicate, .. } = &optimized else {
            panic!("the other conjuncts stay on top:\n{optimized:?}");
        };
        assert_eq!(
            split_conjuncts(predicate),
            vec![&reads_right(), &reads_both()]
        );

        let plan = left_shaped(&db, reads_right(), None);
        let (optimized, rep) = optimize(&plan);
        assert_eq!(rep.preserved_side_pushed, 0, "{}", rep.summary());
        assert_eq!(optimized, plan);
    }

    #[test]
    fn the_outer_join_pushdown_declines_what_it_cannot_prove() {
        let db = db();
        // A `$1` in `θ` does not decline: it is bound before the first
        // operator runs, so `θ` is total, the conjunct moves and `Jsub`
        // collapses beside the parameter comparison.
        let (optimized, rep) = optimize(&param_in_theta(&db));
        assert_eq!(rep.preserved_side_pushed, 1, "{}", rep.summary());
        assert_eq!(
            left_outer_condition(&optimized),
            Some(&and(eq(qcol("r1", "a"), col("sb")), below_param()))
        );
        // A sublink under `OR` establishes nothing: `Jsub` would keep its
        // copy, and the per-pair probe with it.
        let plan = sublink_under_or(&db);
        let (optimized, rep) = optimize(&plan);
        assert_eq!(
            (rep.preserved_side_pushed, rep.sublinks_implied),
            (0, 0),
            "{}",
            rep.summary()
        );
        assert_eq!(plan_fingerprint(&optimized), plan_fingerprint(&plan));
        // A non-total conjunct anywhere in the predicate.
        let division = cmp(
            CompareOp::Gt,
            binary(BinaryOp::Div, lit(100), qcol("r1", "a")),
            lit(0),
        );
        let plan = left_shaped(&db, and(uncorrelated_any(&db), division), None);
        let (optimized, rep) = optimize(&plan);
        assert_eq!(rep.preserved_side_pushed, 0, "{}", rep.summary());
        assert_eq!(plan_fingerprint(&optimized), plan_fingerprint(&plan));
    }

    #[test]
    fn summary_names_the_rules_and_what_is_left() {
        let db = db();
        let (_, rep) = optimize(&gen_shaped(&db, true, hoistable()));
        let summary = rep.summary();
        for rule in ["decorrelate×", "imply×", "split×1", "pushdown×"] {
            assert!(summary.contains(rule), "{summary}");
        }
        assert!(!summary.contains("remain"), "{summary}");
        // A scalar comparison is out of the rules' reach: it is counted.
        let (_, rep) = optimize(&scalar_comparison(&db));
        assert_eq!(rep.sublinks_remaining, 1);
        assert!(
            rep.summary().ends_with("; 1 sublink remains"),
            "{}",
            rep.summary()
        );
    }

    #[test]
    fn stacked_projections_compose_under_the_outer_names() {
        let db = db();
        let plan = stacked_projections(&db);
        let (optimized, rep) = optimize(&plan);
        assert_eq!(rep.projections_composed, 1, "{}", rep.summary());
        assert!(rep.summary().contains("compose×1"), "{}", rep.summary());
        assert!(
            matches!(&optimized, Plan::Project { input, .. } if matches!(**input, Plan::Scan { .. })),
            "one projection over the scan:\n{optimized:?}"
        );
        assert_eq!(optimized.schema(), plan.schema());
    }

    #[test]
    fn composition_declines_what_it_cannot_prove() {
        let db = db();
        let composed = |plan: &Plan| optimize(plan).1.projections_composed;
        let cases = composition(&db);
        // `100 / a` fails on `a = 0`. Dropped, or read only where a `CASE`
        // may shield it, it would stop failing; passed through as an item
        // of its own it still runs on every row.
        assert_eq!(composed(&cases.dropped), 0);
        assert_eq!(composed(&cases.shielded), 0);
        assert_eq!(composed(&cases.passed), 1);
        // A computed item read twice would run twice.
        assert_eq!(composed(&cases.twice), 0);
        // A sublink item, and `Π_S` on either level.
        assert_eq!(composed(&cases.sublink), 0);
        for distinct in &cases.distinct {
            assert_eq!(composed(distinct), 0);
        }
    }

    #[test]
    fn a_sort_moves_below_the_fan_out_and_keeps_the_row_sequence() {
        let db = db();
        let (optimized, rep) = optimize(&sorted_fan_out(&db));
        // Through the projection, then onto the join's left side.
        assert_eq!(rep.sorts_pushed, 2, "{}", rep.summary());
        assert!(
            rep.summary().contains("sort-pushdown×2"),
            "{}",
            rep.summary()
        );
        let Plan::Limit { input, .. } = &optimized else {
            panic!("the limit stays on top:\n{optimized:?}");
        };
        let Plan::Project { input, .. } = input.as_ref() else {
            panic!("the projection is next:\n{optimized:?}");
        };
        let Plan::Join { left, .. } = input.as_ref() else {
            panic!("the sort left the join's output:\n{optimized:?}");
        };
        assert_eq!(
            **left,
            PlanBuilder::scan(&db, "r1")
                .unwrap()
                .sort(vec![SortKey::desc(qcol("r1", "g"))])
                .build()
        );
    }

    #[test]
    fn fuse_turns_residual_select_over_cross_into_join() {
        let db = db();
        let cases = fusion(&db);
        let fused = |plan: &Plan| {
            let (optimized, rep) = optimize(plan);
            (optimized, rep.selections_fused)
        };

        // σ over × becomes an inner join on the predicate, whatever the
        // predicate holds: here a sublink whose own plan is one more.
        let (optimized, n) = fused(&cases.product);
        assert_eq!(n, 1);
        assert!(
            matches!(&optimized, Plan::Join { kind: JoinKind::Inner, condition, .. } if *condition == a_below_b())
        );
        let (optimized, n) = fused(&cases.nested);
        assert_eq!(n, 2);
        assert!(!contains(&optimized, &|p| matches!(p, Plan::Select { .. })));
        assert!(optimize(&cases.nested).1.summary().contains("fuse×2"));

        // σ over an inner join merges into its condition, unless it holds a
        // sublink: then the join runs first and the sublink per joined row.
        let (optimized, n) = fused(&cases.over_join);
        assert_eq!(n, 1);
        assert!(
            matches!(&optimized, Plan::Join { condition, .. } if *condition == and(on_g(), a_below_b()))
        );
        let (optimized, n) = fused(&cases.sublink_over_join);
        assert_eq!(n, 0);
        assert!(
            matches!(&optimized, Plan::Select { input, .. } if matches!(**input, Plan::Join { .. }))
        );
    }

    #[test]
    fn optimization_preserves_the_schema() {
        let db = db();
        let plan = projected_product(&db);
        let pushed = push_down_selections(plan.clone());
        for optimized in [optimize(&plan).0, optimize(&pushed).0, pushed] {
            assert_eq!(optimized.schema(), plan.schema());
        }
    }

    #[test]
    fn folds_constant_selections() {
        let db = db();
        let plan = PlanBuilder::scan(&db, "r1")
            .unwrap()
            .select(lit(false))
            .build();
        let (optimized, rep) = optimize(&plan);
        assert!(rep.constants_folded >= 1);
        assert!(matches!(optimized, Plan::Values { .. }));
    }

    #[test]
    fn an_absorbing_literal_on_the_right_folds_only_a_total_left_operand() {
        let db = db();
        let schema = db.table("r1").unwrap().schema().clone();
        let scope = Scopes::new(&schema, None);
        let fold = |e: Expr| fold_expr(&e, &scope, &mut OptimizerReport::default()).unwrap_or(e);
        let total = cmp(CompareOp::Le, qcol("r1", "a"), Expr::Param(0));
        assert_eq!(fold(or(total.clone(), lit(true))), lit(true));
        assert_eq!(fold(and(total.clone(), lit(false))), lit(false));
        // Skipping a division would skip its error.
        let division = cmp(
            CompareOp::Gt,
            binary(BinaryOp::Div, lit(100), qcol("r1", "a")),
            lit(0),
        );
        for kept in [
            or(division.clone(), lit(true)),
            and(division.clone(), lit(false)),
        ] {
            assert_eq!(fold(kept.clone()), kept);
        }
        // In an empty scope a column does not resolve: declined.
        let unscoped = or(total, lit(true));
        let empty = Schema::empty();
        assert_eq!(
            fold_expr(
                &unscoped,
                &Scopes::new(&empty, None),
                &mut OptimizerReport::default()
            ),
            None
        );

        // `NOT IN`'s shape after the outer pushdown: `⟕_{C'sub ∨ TRUE}`
        // becomes `⟕_TRUE`.
        let (optimized, _) = optimize(&outer_join_or_true(&db));
        assert_eq!(left_outer_condition(&optimized), Some(&lit(true)));
    }

    // The binder's pushdown, over `r(a, b)` and `s(c, d)`.

    fn rs_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Relation::empty(Schema::from_names(&["a", "b"]).with_qualifier("r")),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::empty(Schema::from_names(&["c", "d"]).with_qualifier("s")),
        )
        .unwrap();
        db
    }

    #[test]
    fn split_conjuncts_flattens_nested_ands() {
        let e = and(
            and(eq(col("a"), lit(1)), eq(col("b"), lit(2))),
            eq(col("c"), lit(3)),
        );
        assert_eq!(split_conjuncts(&e).len(), 3);
    }

    #[test]
    fn pushdown_turns_cross_product_into_join() {
        let db = rs_db();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .cross(s)
            .select(and(
                eq(col("a"), col("c")),
                and(eq(col("b"), lit(1)), eq(col("d"), lit(2))),
            ))
            .build();
        let optimized = push_down_selections(q);
        match optimized {
            Plan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                ..
            } => {
                assert!(
                    matches!(*left, Plan::Select { .. }),
                    "b=1 pushed to the left side"
                );
                assert!(
                    matches!(*right, Plan::Select { .. }),
                    "d=2 pushed to the right side"
                );
            }
            other => panic!("expected a join, got {other:?}"),
        }
    }

    #[test]
    fn pushdown_keeps_sublink_conjuncts_in_the_selection() {
        let db = rs_db();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .cross(s)
            .select(and(eq(col("a"), col("c")), exists_sublink(sub)))
            .build();
        let optimized = push_down_selections(q);
        match optimized {
            Plan::Select { input, predicate } => {
                assert!(predicate.has_sublink());
                assert!(matches!(*input, Plan::Join { .. }));
            }
            other => panic!("expected a residual selection, got {other:?}"),
        }
    }

    #[test]
    fn pushdown_reaches_sublink_plans_in_aggregate_and_sort_expressions() {
        let db = rs_db();
        // `r` grouped by, then sorted on, `EXISTS (sub)`.
        let over = |sub: &Plan| {
            let exists = || exists_sublink(sub.clone());
            PlanBuilder::scan(&db, "r")
                .unwrap()
                .aggregate(
                    vec![ProjectItem::new(exists(), "hit")],
                    vec![count_star("n")],
                )
                .sort(vec![SortKey::asc(exists())])
                .build()
        };
        let sub = PlanBuilder::scan(&db, "r")
            .unwrap()
            .cross(PlanBuilder::scan(&db, "s").unwrap().build())
            .select(and(eq(col("a"), col("c")), eq(col("d"), lit(2))))
            .build();
        let pushed = push_down_selections(sub.clone());
        assert!(
            matches!(&pushed, Plan::Join { right, .. } if matches!(**right, Plan::Select { .. }))
        );
        assert_eq!(push_down_selections(over(&sub)), over(&pushed));
    }
}
