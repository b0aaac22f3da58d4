//! The plans the optimizer's tests run through `optimize`:
//! the unit tests of this crate check what the rules make of them, and the
//! workspace's `tests/optimizer_rules.rs` (which includes this file by path)
//! executes each one against the reference interpreter. Keeping them in one
//! file keeps both halves on the same plans.

use perm_algebra::builder::{
    all_sublink, and, any_sublink, between, binary, cmp, col, count, count_star, eq,
    exists_sublink, lit, not, null, null_safe_eq, or, qcol, scalar_sublink, sum, PlanBuilder,
};
use perm_algebra::{BinaryOp, CompareOp, Expr, Plan, ProjectItem, SetOpKind, SortKey};
use perm_storage::{Database, Relation, Schema, Tuple, Value};

/// `r1(a, g)` and `r2(b, g)`, twenty rows each: `a = b = i`, `r1.g = i % 4`,
/// `r2.g = i % 3`.
pub fn db() -> Database {
    let mut db = Database::new();
    let mut r1 = Relation::empty(Schema::from_names(&["a", "g"]).with_qualifier("r1"));
    let mut r2 = Relation::empty(Schema::from_names(&["b", "g"]).with_qualifier("r2"));
    for i in 0..20i64 {
        r1.push(Tuple::new(vec![Value::Int(i), Value::Int(i % 4)]))
            .unwrap();
        r2.push(Tuple::new(vec![Value::Int(i), Value::Int(i % 3)]))
            .unwrap();
    }
    db.create_table("r1", r1).unwrap();
    db.create_table("r2", r2).unwrap();
    db
}

fn scan(db: &Database, table: &str) -> PlanBuilder {
    PlanBuilder::scan(db, table).unwrap()
}

/// `σ_{EXISTS(σ_{b BETWEEN 2 AND 15 ∧ r2.g = r1.g}(r2))}(r1)`.
pub fn correlated_exists(db: &Database) -> Plan {
    let sub = scan(db, "r2")
        .select(and(
            between(qcol("r2", "b"), lit(2), lit(15)),
            eq(qcol("r2", "g"), qcol("r1", "g")),
        ))
        .build();
    scan(db, "r1").select(exists_sublink(sub)).build()
}

/// `σ_{¬EXISTS(σ_{r2.g = r1.g}(r2))}(r1)`.
pub fn not_exists(db: &Database) -> Plan {
    let sub = scan(db, "r2")
        .select(eq(qcol("r2", "g"), qcol("r1", "g")))
        .build();
    scan(db, "r1").select(not(exists_sublink(sub))).build()
}

/// `σ_{a = ANY(Π_b(σ_{r2.g = r1.g ∧ b BETWEEN 2 AND 15}(r2)))}(r1)`.
pub fn any_equality(db: &Database) -> Plan {
    let sub = scan(db, "r2")
        .select(and(
            eq(qcol("r2", "g"), qcol("r1", "g")),
            between(qcol("r2", "b"), lit(2), lit(15)),
        ))
        .project_columns(&["b"])
        .build();
    scan(db, "r1")
        .select(any_sublink(qcol("r1", "a"), CompareOp::Eq, sub))
        .build()
}

/// The SQL binder wraps `EXISTS (SELECT * ...)` bodies in a multi-item
/// passthrough projection; peeling must drop it.
pub fn exists_with_star(db: &Database) -> Plan {
    let sub = scan(db, "r2")
        .select(eq(qcol("r2", "g"), qcol("r1", "g")))
        .project(vec![
            ProjectItem::new(qcol("r2", "b"), "b"),
            ProjectItem::new(qcol("r2", "g"), "g"),
        ])
        .build();
    scan(db, "r1").select(exists_sublink(sub)).build()
}

/// `Π_a(Π_{a, g}(r1))`: `g` is read by nobody.
pub fn narrowed_projection(db: &Database) -> Plan {
    let wide = scan(db, "r1")
        .project(vec![
            ProjectItem::new(qcol("r1", "a"), "a"),
            ProjectItem::new(qcol("r1", "g"), "g"),
        ])
        .build();
    Plan::Project {
        input: wide.into(),
        items: vec![ProjectItem::new(col("a"), "a")],
        distinct: false,
    }
}

/// The shape the Gen strategy gives `σ_{[NOT] EXISTS(T)}(r1)` with
/// `T = σ_{b BETWEEN 2 AND 15 ∧ r2.g = r1.g}(r2)`:
/// `σ[C ∧ (EXISTS(σ_{P =ₙ chk}(Π_{→chk}(T))) ∨ (¬EXISTS(T) ∧ P =ₙ NULL))]`
/// over `r1 × Π_{→P}(r2 ∪ALL {NULL})`. `correlation` is the body's
/// correlated conjunct.
pub fn gen_shaped(db: &Database, negated: bool, correlation: Expr) -> Plan {
    let body = || {
        scan(db, "r2")
            .select(and(
                between(qcol("r2", "b"), lit(2), lit(15)),
                correlation.clone(),
            ))
            .build()
    };
    let renamed = |suffix: &str| {
        vec![
            ProjectItem::new(col("b"), format!("b_{suffix}")),
            ProjectItem::new(col("g"), format!("g_{suffix}")),
        ]
    };
    let membership = PlanBuilder::from_plan(body())
        .project(renamed("chk"))
        .select(and(
            null_safe_eq(col("b_p"), col("b_chk")),
            null_safe_eq(col("g_p"), col("g_chk")),
        ))
        .build();
    let cross_base = scan(db, "r2")
        .set_op(
            SetOpKind::Union,
            true,
            Plan::Values {
                schema: Schema::from_names(&["b", "g"]),
                rows: vec![Tuple::new(vec![Value::Null, Value::Null])],
            },
        )
        .project(renamed("p"))
        .build();
    let csub = if negated {
        not(exists_sublink(body()))
    } else {
        exists_sublink(body())
    };
    let empty_case = and(
        not(exists_sublink(body())),
        and(
            null_safe_eq(col("b_p"), null()),
            null_safe_eq(col("g_p"), null()),
        ),
    );
    scan(db, "r1")
        .cross(cross_base)
        .select(and(csub, or(exists_sublink(membership), empty_case)))
        .build()
}

/// The Gen body's correlation as `r2.g = r1.g`, which the rules hoist.
pub fn hoistable() -> Expr {
    eq(qcol("r2", "g"), qcol("r1", "g"))
}

/// The Gen body's correlation through arithmetic, which no rule hoists.
pub fn unhoistable() -> Expr {
    eq(
        qcol("r2", "g"),
        binary(BinaryOp::Add, qcol("r1", "g"), lit(0)),
    )
}

/// `EXISTS (SELECT 1 FROM (SELECT count(*) n FROM r2 WHERE r2.g = r1.g)
/// WHERE n = 0)` over `r1`: the COUNT bug — `r1.g = 3` has no partner in
/// `r2` and must still see its `count = 0` row.
pub fn empty_group_exists(db: &Database) -> Plan {
    let counted = scan(db, "r2")
        .select(eq(qcol("r2", "g"), qcol("r1", "g")))
        .aggregate(vec![], vec![count_star("n")])
        .select(eq(col("n"), lit(0)))
        .build();
    scan(db, "r1").select(exists_sublink(counted)).build()
}

/// `σ_{r1.g = 1 ∧ r2.g = 2 ∧ r1.a = r2.b}(r1 × r2)`.
pub fn product_with_factor_conjuncts(db: &Database) -> Plan {
    scan(db, "r1")
        .cross(scan(db, "r2").build())
        .select(and(
            eq(qcol("r1", "g"), lit(1)),
            and(
                eq(qcol("r2", "g"), lit(2)),
                eq(qcol("r1", "a"), qcol("r2", "b")),
            ),
        ))
        .build()
}

/// `a = ANY (SELECT b FROM r2 WHERE b BETWEEN 2 AND 15)` over `r1`.
pub fn uncorrelated_any(db: &Database) -> Expr {
    let sub = scan(db, "r2")
        .select(between(qcol("r2", "b"), lit(2), lit(15)))
        .project_columns(&["b"])
        .build();
    any_sublink(qcol("r1", "a"), CompareOp::Eq, sub)
}

/// `Jsub = a = sb ∨ ¬Csub` of [`left_shaped`].
pub fn jsub(db: &Database) -> Expr {
    or(eq(qcol("r1", "a"), col("sb")), not(uncorrelated_any(db)))
}

/// The shape rule L1 gives `σ_C(r1)` with `Csub = a = ANY(…)`:
/// `σ_C(r1 ⟕_{θ} Π_{b→sb}(…))`, `θ` defaulting to [`jsub`].
pub fn left_shaped(db: &Database, c: Expr, theta: Option<Expr>) -> Plan {
    let tsub = scan(db, "r2")
        .select(between(qcol("r2", "b"), lit(2), lit(15)))
        .project(vec![ProjectItem::new(qcol("r2", "b"), "sb")])
        .build();
    scan(db, "r1")
        .left_join(tsub, theta.unwrap_or_else(|| jsub(db)))
        .select(c)
        .build()
}

/// Rule T1's form: the `ALL` sublink projected once as `v`, `θ` and `C`
/// read the column, and a projection a rewrite puts on top.
pub fn t1_shaped(db: &Database) -> Plan {
    let sub = scan(db, "r2").project_columns(&["b"]).build();
    let tsub = scan(db, "r2")
        .project(vec![ProjectItem::new(qcol("r2", "b"), "sb")])
        .build();
    scan(db, "r1")
        .project(vec![
            ProjectItem::new(qcol("r1", "a"), "a"),
            ProjectItem::new(all_sublink(qcol("r1", "a"), CompareOp::Le, sub), "v"),
        ])
        .left_join(
            tsub,
            or(col("v"), not(cmp(CompareOp::Le, col("a"), col("sb")))),
        )
        .select(col("v"))
        .project_columns(&["a", "sb"])
        .build()
}

/// `sb = 3`: reads the outer join's null-extended side only.
pub fn reads_right() -> Expr {
    eq(col("sb"), lit(3))
}

/// `r1.g <= sb`: reads both sides of the outer join.
pub fn reads_both() -> Expr {
    cmp(CompareOp::Le, qcol("r1", "g"), col("sb"))
}

/// [`left_shaped`] under `reads_right ∧ a = ANY(…) ∧ reads_both`.
pub fn mixed_sides(db: &Database) -> Plan {
    left_shaped(
        db,
        and(reads_right(), and(uncorrelated_any(db), reads_both())),
        None,
    )
}

/// `sb <= $1`, bound before the first operator runs.
pub fn below_param() -> Expr {
    cmp(CompareOp::Le, col("sb"), Expr::Param(0))
}

/// [`left_shaped`] with `θ = Jsub ∧ sb <= $1`.
pub fn param_in_theta(db: &Database) -> Plan {
    left_shaped(db, uncorrelated_any(db), Some(and(jsub(db), below_param())))
}

/// [`left_shaped`] under `r1.g = 1 ∨ a = ANY(…)`: a sublink under `OR`
/// establishes nothing.
pub fn sublink_under_or(db: &Database) -> Plan {
    left_shaped(
        db,
        or(eq(qcol("r1", "g"), lit(1)), uncorrelated_any(db)),
        None,
    )
}

/// `Π_{inner.a2→outer.x, lt→y, a2→x2}(Π_{r1.a→inner.a2, r1.a < r1.g→lt}(r1))`.
pub fn stacked_projections(db: &Database) -> Plan {
    scan(db, "r1")
        .project(vec![
            ProjectItem::new(qcol("r1", "a"), "a2").with_qualifier("inner"),
            ProjectItem::new(cmp(CompareOp::Lt, qcol("r1", "a"), qcol("r1", "g")), "lt"),
        ])
        .project(vec![
            ProjectItem::new(qcol("inner", "a2"), "x").with_qualifier("outer"),
            ProjectItem::new(col("lt"), "y"),
            ProjectItem::new(col("a2"), "x2"),
        ])
        .build()
}

/// Stacked projections over `r1` that composition must leave alone, or
/// compose without losing an error.
pub struct Composition {
    /// `100 / a` (which fails on `a = 0`) computed below, never read above.
    pub dropped: Plan,
    /// `100 / a` read above only where a `CASE` may shield it.
    pub shielded: Plan,
    /// `100 / a` passed through as an item of its own.
    pub passed: Plan,
    /// A computed item read twice above.
    pub twice: Plan,
    /// A sublink item passed through.
    pub sublink: Plan,
    /// `Π_S` below, then above.
    pub distinct: [Plan; 2],
}

pub fn composition(db: &Database) -> Composition {
    let over_r1 = |below: Vec<ProjectItem>, above: Vec<ProjectItem>| {
        scan(db, "r1").project(below).project(above).build()
    };
    let a = || ProjectItem::new(qcol("r1", "a"), "a");
    let quotient = || ProjectItem::new(binary(BinaryOp::Div, lit(100), qcol("r1", "a")), "q");
    let less = || ProjectItem::new(cmp(CompareOp::Lt, qcol("r1", "a"), qcol("r1", "g")), "lt");
    let g = || vec![ProjectItem::new(col("g"), "g")];
    Composition {
        dropped: over_r1(vec![a(), quotient()], vec![a()]),
        shielded: over_r1(
            vec![a(), quotient()],
            vec![ProjectItem::new(
                Expr::Case {
                    branches: vec![(cmp(CompareOp::Gt, col("a"), lit(0)), col("q"))],
                    else_expr: None,
                },
                "safe",
            )],
        ),
        passed: over_r1(vec![a(), quotient()], vec![ProjectItem::new(col("q"), "q")]),
        twice: over_r1(
            vec![less()],
            vec![
                ProjectItem::new(col("lt"), "l1"),
                ProjectItem::new(col("lt"), "l2"),
            ],
        ),
        sublink: over_r1(
            vec![a(), ProjectItem::new(uncorrelated_any(db), "hit")],
            vec![ProjectItem::new(col("hit"), "hit")],
        ),
        distinct: [
            scan(db, "r1").project_distinct(g()).project(g()).build(),
            scan(db, "r1").project(g()).project_distinct(g()).build(),
        ],
    }
}

/// `LIMIT 9` over a sort on `g1 DESC` over `Π_{r1.g→g1, r2.b}(r1 ⋈_g r2)`.
pub fn sorted_fan_out(db: &Database) -> Plan {
    scan(db, "r1")
        .join(scan(db, "r2").build(), eq(qcol("r1", "g"), qcol("r2", "g")))
        .project(vec![
            ProjectItem::new(qcol("r1", "g"), "g1"),
            ProjectItem::new(qcol("r2", "b"), "b"),
        ])
        .sort(vec![SortKey::desc(col("g1"))])
        .limit(9)
        .build()
}

/// `r1.a < r2.b`.
pub fn a_below_b() -> Expr {
    cmp(CompareOp::Lt, qcol("r1", "a"), qcol("r2", "b"))
}

/// `r1.g = r2.g`.
pub fn on_g() -> Expr {
    eq(qcol("r1", "g"), qcol("r2", "g"))
}

/// Selections the last step fuses, or declines to.
pub struct Fusion {
    /// `σ_{a < b}(r1 × r2)`.
    pub product: Plan,
    /// `σ_{EXISTS(product) ∧ a < b}(r1 × r2)`: the sublink's plan is one
    /// more product to fuse.
    pub nested: Plan,
    /// `σ_{a < b}(r1 ⋈_g r2)`.
    pub over_join: Plan,
    /// `σ_{a < b ∧ ¬(a = ANY(…))}(r1 ⋈_g r2)`.
    pub sublink_over_join: Plan,
}

pub fn fusion(db: &Database) -> Fusion {
    let product = || {
        scan(db, "r1")
            .cross(scan(db, "r2").build())
            .select(a_below_b())
    };
    let joined = || scan(db, "r1").join(scan(db, "r2").build(), on_g());
    Fusion {
        product: product().build(),
        nested: scan(db, "r1")
            .cross(scan(db, "r2").build())
            .select(and(exists_sublink(product().build()), a_below_b()))
            .build(),
        over_join: joined().select(a_below_b()).build(),
        sublink_over_join: joined()
            .select(and(a_below_b(), not(uncorrelated_any(db))))
            .build(),
    }
}

/// `Π_{r1.a, r2.g}(σ_{r1.a = r2.b}(r1 × r2))`.
pub fn projected_product(db: &Database) -> Plan {
    scan(db, "r1")
        .cross(scan(db, "r2").build())
        .select(eq(qcol("r1", "a"), qcol("r2", "b")))
        .project(vec![
            ProjectItem::new(qcol("r1", "a"), "a"),
            ProjectItem::new(qcol("r2", "g"), "g"),
        ])
        .build()
}

/// `r1 ⟕_{r1.a = r2.b ∨ TRUE} r2`: `NOT IN`'s shape after the outer
/// pushdown.
pub fn outer_join_or_true(db: &Database) -> Plan {
    scan(db, "r1")
        .left_join(
            scan(db, "r2").build(),
            or(eq(qcol("r1", "a"), qcol("r2", "b")), lit(true)),
        )
        .build()
}

/// `scalar(count(*) of r2 rows with r2.g = r1.g) = 0` over `r1`: a scalar
/// comparison is out of the rules' reach.
pub fn scalar_comparison(db: &Database) -> Plan {
    let scalar = scan(db, "r2")
        .select(eq(qcol("r2", "g"), qcol("r1", "g")))
        .aggregate(vec![], vec![count_star("n")])
        .build();
    scan(db, "r1")
        .select(eq(scalar_sublink(scalar), lit(0)))
        .build()
}

/// `Π_{g, s, 10 * 10 → k}(Sort_{g + 0 * 1}(γ_{g; sum(a * (2 + 3)) → s}(r1)))`:
/// one constant subexpression in a Π item, a sort key and an aggregate
/// argument.
pub fn constant_expressions(db: &Database) -> Plan {
    let constant = |op, l: i64, r: i64| binary(op, lit(l), lit(r));
    scan(db, "r1")
        .aggregate(
            vec![ProjectItem::new(qcol("r1", "g"), "g")],
            vec![sum(
                binary(
                    BinaryOp::Mul,
                    qcol("r1", "a"),
                    constant(BinaryOp::Add, 2, 3),
                ),
                "s",
            )],
        )
        .sort(vec![SortKey::asc(binary(
            BinaryOp::Add,
            col("g"),
            constant(BinaryOp::Mul, 0, 1),
        ))])
        .project(vec![
            ProjectItem::column("g"),
            ProjectItem::column("s"),
            ProjectItem::new(constant(BinaryOp::Mul, 10, 10), "k"),
        ])
        .build()
}

/// Connectives whose kept operand is an integer, in value positions: the
/// evaluator reads `a` as UNKNOWN, so each is NULL (and `count` counts
/// none), and none may fold to `a`.
/// `Π_{a ∨ FALSE → x, TRUE ∧ a > 9 → y}(Sort_{(a ∧ TRUE) DESC}(r1))` and
/// `γ_{TRUE ∧ a → k; count(a ∨ FALSE) → n}(r1)`; only `y` folds.
pub fn value_connectives(db: &Database) -> [Plan; 2] {
    let a = || qcol("r1", "a");
    let sorted = scan(db, "r1")
        .sort(vec![SortKey::desc(and(a(), lit(true)))])
        .project(vec![
            ProjectItem::new(or(a(), lit(false)), "x"),
            ProjectItem::new(and(lit(true), cmp(CompareOp::Gt, a(), lit(9))), "y"),
        ])
        .build();
    let grouped = scan(db, "r1")
        .aggregate(
            vec![ProjectItem::new(and(lit(true), a()), "k")],
            vec![count(or(a(), lit(false)), "n")],
        )
        .build();
    [sorted, grouped]
}
