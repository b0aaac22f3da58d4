//! Executable versions of the contribution definitions.
//!
//! * **Definition 1** (Cui & Widom): a tuple of maximal subsets of the input
//!   relations contributes to a result tuple `t` iff it (1) produces exactly
//!   `t` and (2) every tuple in every subset produces a non-empty result on
//!   its own.
//! * **Definition 2** (this paper): additionally (3) the subsets substituted
//!   for sublink relations must reproduce the original result of every
//!   sublink for every combination of input tuples.
//!
//! Both definitions are implemented as brute-force checkers that enumerate
//! subsets of designated input relations and re-execute the query with those
//! subsets substituted. They are exponential and only meant for small inputs;
//! their purpose is to serve as ground truth in tests and to demonstrate the
//! ambiguity of Definition 1 for multi-sublink queries (Section 2.5).

use crate::{ProvenanceError, Result};
use perm_algebra::{Expr, Plan};
use perm_exec::{Env, Executor, Interpreter};
use perm_storage::{Database, Relation, Truth, Tuple};

/// One candidate provenance assignment: for each designated input relation
/// (in the order given to the checker) the subset of its tuples that
/// contributes.
pub type Witness = Vec<Relation>;

/// Configuration of the brute-force checker: the query, the database and the
/// names of the relations whose subsets are enumerated.
pub struct BruteForce<'a> {
    db: &'a Database,
    plan: &'a Plan,
    /// Relations enumerated as ordinary inputs (`T1 … Tn` in the definitions).
    pub inputs: Vec<String>,
    /// Relations enumerated as sublink inputs (`Tsub1 … Tsubm`).
    pub sublink_inputs: Vec<String>,
}

impl<'a> BruteForce<'a> {
    /// Creates a checker for `plan` over `db`.
    pub fn new(db: &'a Database, plan: &'a Plan) -> BruteForce<'a> {
        BruteForce {
            db,
            plan,
            inputs: Vec::new(),
            sublink_inputs: Vec::new(),
        }
    }

    /// Designates an ordinary input relation.
    pub fn input(mut self, name: &str) -> Self {
        self.inputs.push(name.to_string());
        self
    }

    /// Designates a sublink input relation.
    pub fn sublink_input(mut self, name: &str) -> Self {
        self.sublink_inputs.push(name.to_string());
        self
    }

    fn all_names(&self) -> Vec<String> {
        let mut names = self.inputs.clone();
        names.extend(self.sublink_inputs.iter().cloned());
        names
    }

    /// Executes the plan with the given subsets substituted for the
    /// designated relations.
    fn execute_with(&self, subsets: &[Relation]) -> Result<Relation> {
        let mut db = self.db.clone();
        for (name, subset) in self.all_names().iter().zip(subsets.iter()) {
            db.create_or_replace_table(name.clone(), subset.clone());
        }
        let executor = Executor::new(&db);
        executor.execute(self.plan).map_err(ProvenanceError::Exec)
    }

    /// Condition 1: the subsets produce exactly the singleton bag `{t}` when
    /// projected onto distinct tuples (the result must contain `t` and
    /// nothing else).
    fn condition1(&self, subsets: &[Relation], t: &Tuple) -> Result<bool> {
        let result = self.execute_with(subsets)?;
        Ok(!result.is_empty() && result.distinct().tuples().iter().all(|r| r.null_safe_eq(t)))
    }

    /// Condition 2: replacing any one subset by any single tuple of it still
    /// produces a non-empty result.
    fn condition2(&self, subsets: &[Relation]) -> Result<bool> {
        for (i, subset) in subsets.iter().enumerate() {
            for tuple in subset.tuples() {
                let mut single = subsets.to_vec();
                single[i] =
                    Relation::new(subset.schema().clone(), vec![tuple.clone()]).expect("arity");
                if self.execute_with(&single)?.is_empty() {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Condition 3 (Definition 2 only): every sublink of `sublink_exprs`
    /// produces, for every combination of tuples of the ordinary input
    /// subsets, the same result with the full sublink relation and with every
    /// single tuple of the corresponding subset.
    ///
    /// `sublink_exprs[j]` is the `j`-th sublink expression and is evaluated
    /// with the tuple of the (single) ordinary input bound as the evaluation
    /// scope; `self.sublink_inputs[j]` is the relation substituted.
    fn condition3(
        &self,
        subsets: &[Relation],
        sublink_exprs: &[Expr],
        input_schema: &perm_storage::Schema,
    ) -> Result<bool> {
        let n_inputs = self.inputs.len();
        if n_inputs != 1 {
            return Err(ProvenanceError::Unsupported(
                "the brute-force Definition 2 checker handles exactly one ordinary input".into(),
            ));
        }
        let input_subset = &subsets[0];
        for input_tuple in input_subset.tuples() {
            for (j, sublink_expr) in sublink_exprs.iter().enumerate() {
                let sub_name = &self.sublink_inputs[j];
                let full = self.db.table(sub_name)?.clone();
                let reference =
                    self.eval_sublink(sublink_expr, &full, sub_name, input_schema, input_tuple)?;
                let subset = &subsets[n_inputs + j];
                for single in subset.tuples() {
                    let single_rel = Relation::new(subset.schema().clone(), vec![single.clone()])
                        .expect("arity");
                    let got = self.eval_sublink(
                        sublink_expr,
                        &single_rel,
                        sub_name,
                        input_schema,
                        input_tuple,
                    )?;
                    if got != reference {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Evaluates a sublink expression with `substitute` substituted for the
    /// relation `sub_name` and `input_tuple` bound as the outer scope.
    fn eval_sublink(
        &self,
        sublink_expr: &Expr,
        substitute: &Relation,
        sub_name: &str,
        input_schema: &perm_storage::Schema,
        input_tuple: &Tuple,
    ) -> Result<Truth> {
        let mut db = self.db.clone();
        db.create_or_replace_table(sub_name, substitute.clone());
        let executor = Executor::new(&db);
        let env = Env::new(None, input_schema, input_tuple);
        let value = Interpreter::new(&executor)
            .eval_expr(sublink_expr, Some(&env))
            .map_err(ProvenanceError::Exec)?;
        Ok(value.as_truth())
    }

    /// Enumerates every maximal witness satisfying conditions 1 and 2
    /// (Definition 1) for result tuple `t`.
    pub fn definition1_witnesses(&self, t: &Tuple) -> Result<Vec<Witness>> {
        self.maximal_witnesses(t, None)
    }

    /// Enumerates every maximal witness satisfying conditions 1–3
    /// (Definition 2) for result tuple `t`. `sublink_exprs` are the sublink
    /// expressions of the (single-operator) query in the same order as
    /// `sublink_inputs`; `input_schema` is the schema the input tuple of the
    /// operator is bound with when evaluating condition 3.
    pub fn definition2_witnesses(
        &self,
        t: &Tuple,
        sublink_exprs: &[Expr],
        input_schema: &perm_storage::Schema,
    ) -> Result<Vec<Witness>> {
        self.maximal_witnesses(t, Some((sublink_exprs, input_schema)))
    }

    fn maximal_witnesses(
        &self,
        t: &Tuple,
        condition3: Option<(&[Expr], &perm_storage::Schema)>,
    ) -> Result<Vec<Witness>> {
        let names = self.all_names();
        let relations: Vec<Relation> = names
            .iter()
            .map(|n| self.db.table(n).cloned())
            .collect::<std::result::Result<_, _>>()?;

        // Enumerate all combinations of subsets.
        let mut satisfying: Vec<Witness> = Vec::new();
        let mut current: Vec<Relation> = Vec::with_capacity(relations.len());
        self.enumerate(&relations, 0, &mut current, t, condition3, &mut satisfying)?;

        // Keep only the maximal ones (no other satisfying witness strictly
        // contains them component-wise).
        let maximal: Vec<Witness> = satisfying
            .iter()
            .filter(|w| {
                !satisfying
                    .iter()
                    .any(|other| !witness_eq(other, w) && witness_contains(other, w))
            })
            .cloned()
            .collect();
        Ok(maximal)
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        &self,
        relations: &[Relation],
        index: usize,
        current: &mut Vec<Relation>,
        t: &Tuple,
        condition3: Option<(&[Expr], &perm_storage::Schema)>,
        out: &mut Vec<Witness>,
    ) -> Result<()> {
        if index == relations.len() {
            if self.condition1(current, t)? && self.condition2(current)? {
                let c3 = match condition3 {
                    None => true,
                    Some((exprs, schema)) => self.condition3(current, exprs, schema)?,
                };
                if c3 {
                    out.push(current.clone());
                }
            }
            return Ok(());
        }
        for subset in subsets_of(&relations[index]) {
            current.push(subset);
            self.enumerate(relations, index + 1, current, t, condition3, out)?;
            current.pop();
        }
        Ok(())
    }
}

/// All subsets of a relation's tuples (2^n relations) — the relations used
/// with the brute-force checker must therefore stay tiny.
pub fn subsets_of(relation: &Relation) -> Vec<Relation> {
    let tuples = relation.tuples();
    let n = tuples.len();
    assert!(
        n <= 12,
        "brute-force subset enumeration is limited to 12 tuples"
    );
    let mut out = Vec::with_capacity(1 << n);
    for mask in 0..(1u32 << n) {
        let selected: Vec<Tuple> = tuples
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, t)| t.clone())
            .collect();
        out.push(Relation::new(relation.schema().clone(), selected).expect("same schema"));
    }
    out
}

/// `true` when `a` contains `b` component-wise (every relation of `b` is a
/// sub-bag of the corresponding relation of `a`, multiplicities included).
pub fn witness_contains(a: &Witness, b: &Witness) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(ra, rb)| {
            rb.tuples()
                .iter()
                .all(|t| ra.multiplicity(t) >= rb.multiplicity(t))
        })
}

/// Component-wise bag equality of witnesses.
pub fn witness_eq(a: &Witness, b: &Witness) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(ra, rb)| ra.bag_eq(rb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::builder::{all_sublink, any_sublink, col, or, PlanBuilder};
    use perm_algebra::CompareOp;
    use perm_storage::{Schema, Value};

    /// The relations of the Section 2.5 ambiguity example, shrunk to stay
    /// within brute-force range: R = {1,…,5}, S = {1, 5}, U = {5}.
    fn section25_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::from_names(&["b"]).with_qualifier("r"),
                (1..=5).map(|i| vec![Value::Int(i)]).collect(),
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                Schema::from_names(&["c"]).with_qualifier("s"),
                vec![vec![Value::Int(1)], vec![Value::Int(5)]],
            ),
        )
        .unwrap();
        db.create_table(
            "u",
            Relation::from_rows(
                Schema::from_names(&["a"]).with_qualifier("u"),
                vec![vec![Value::Int(5)]],
            ),
        )
        .unwrap();
        db
    }

    fn section25_query(db: &Database) -> (Plan, Vec<Expr>) {
        // σ_{(a = ANY R) ∨ (a > ALL S)}(U)
        let c1 = any_sublink(
            col("a"),
            CompareOp::Eq,
            PlanBuilder::scan(db, "r").unwrap().build(),
        );
        let c2 = all_sublink(
            col("a"),
            CompareOp::Gt,
            PlanBuilder::scan(db, "s").unwrap().build(),
        );
        let condition = or(c1.clone(), c2.clone());
        let plan = PlanBuilder::scan(db, "u")
            .unwrap()
            .select(condition)
            .build();
        (plan, vec![c1, c2])
    }

    #[test]
    fn definition1_is_ambiguous_for_multiple_sublinks() {
        let db = section25_db();
        let (plan, _) = section25_query(&db);
        let checker = BruteForce::new(&db, &plan)
            .input("u")
            .sublink_input("r")
            .sublink_input("s");
        let t = Tuple::new(vec![Value::Int(5)]);
        let witnesses = checker.definition1_witnesses(&t).unwrap();
        // More than one maximal witness: maximising R* forces S* to shrink
        // and vice versa — Definition 1 is not well defined here.
        assert!(
            witnesses.len() > 1,
            "expected multiple maximal witnesses, got {}",
            witnesses.len()
        );
    }

    #[test]
    fn definition2_is_unique_for_multiple_sublinks() {
        let db = section25_db();
        let (plan, sublinks) = section25_query(&db);
        let checker = BruteForce::new(&db, &plan)
            .input("u")
            .sublink_input("r")
            .sublink_input("s");
        let t = Tuple::new(vec![Value::Int(5)]);
        let input_schema = Schema::from_names(&["a"]).with_qualifier("u");
        let witnesses = checker
            .definition2_witnesses(&t, &sublinks, &input_schema)
            .unwrap();
        assert_eq!(witnesses.len(), 1, "Definition 2 must be unique");
        let witness = &witnesses[0];
        // U* = {(5)}, R* = {(5)} (the only R tuple reproducing C1 = true for
        // every singleton), S* = {(1), (5)} (C2 is false; both tuples keep it
        // false… no: (1) keeps a > ALL false? 5 > 1 is true, so {(1)} would
        // flip C2 to true). The unique Definition 2 solution keeps only the
        // tuples that reproduce the original sublink results: R* = {(5)},
        // S* = {(5)}.
        assert_eq!(witness[0].len(), 1);
        assert!(witness[1].contains(&Tuple::new(vec![Value::Int(5)])));
        assert_eq!(witness[1].len(), 1);
        assert!(witness[2].contains(&Tuple::new(vec![Value::Int(5)])));
        assert_eq!(witness[2].len(), 1);
    }

    #[test]
    fn single_sublink_definition1_matches_figure2() {
        // q1 = σ_{a = ANY(Π_c(S))}(R) over the Figure 3 relations; the
        // provenance of (1,1) according to S is {(1,3)}.
        let mut db = Database::new();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::from_names(&["a", "b"]).with_qualifier("r"),
                vec![
                    vec![Value::Int(1), Value::Int(1)],
                    vec![Value::Int(2), Value::Int(1)],
                    vec![Value::Int(3), Value::Int(2)],
                ],
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                Schema::from_names(&["c", "d"]).with_qualifier("s"),
                vec![
                    vec![Value::Int(1), Value::Int(3)],
                    vec![Value::Int(2), Value::Int(4)],
                    vec![Value::Int(4), Value::Int(5)],
                ],
            ),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let plan = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let checker = BruteForce::new(&db, &plan).input("r").sublink_input("s");
        let t = Tuple::new(vec![Value::Int(1), Value::Int(1)]);
        let witnesses = checker.definition1_witnesses(&t).unwrap();
        assert_eq!(witnesses.len(), 1);
        assert_eq!(witnesses[0][0].len(), 1); // R* = {(1,1)}
        assert_eq!(witnesses[0][1].len(), 1); // S* = {(1,3)} = Tsub_true
        assert!(witnesses[0][1].contains(&Tuple::new(vec![Value::Int(1), Value::Int(3)])));
    }

    #[test]
    fn subsets_of_counts() {
        let r = Relation::from_rows(
            Schema::from_names(&["a"]),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        let subsets = subsets_of(&r);
        assert_eq!(subsets.len(), 4);
        assert!(subsets.iter().any(|s| s.is_empty()));
        assert!(subsets.iter().any(|s| s.len() == 2));
    }
}
