//! [`QuantProbe`]: an `ANY` / `ALL` sublink result summarised in one pass,
//! so that each test value costs one hash probe or one bound comparison
//! instead of a fold over the whole result.
//!
//! The fold ([`crate::eval::fold_quantified`], which the interpreter runs)
//! combines one three-valued comparison per result row with `OR` (`ANY`)
//! or `AND` (`ALL`). `compare` cannot fail and Kleene `OR` / `AND` are
//! commutative and idempotent, so its verdict depends only on *whether*
//! some row compares TRUE, some FALSE and some UNKNOWN — not on their order
//! or number. The probe keeps exactly what answers those three questions
//! for every operator:
//!
//! * `=` / `<>`: the [`perm_storage::encode_key`] set of the non-NULL
//!   values, interned in one [`KeyTable`] arena; each test value is encoded
//!   into a reused buffer, so a probe allocates nothing per row it
//!   answers. Key equality is `strict_eq` (the invariant documented in
//!   `perm_storage`'s `keys.rs`), so `t = r` holds for some row iff `t`'s
//!   key is in the set, and fails for some row iff the set holds another
//!   key — a value of the other comparison class compares FALSE under `=`,
//!   never UNKNOWN.
//! * `<`, `<=`, `>`, `>=`: per comparison class — numeric (`Int`, `Float`,
//!   `Date`, `Bool`) or `Str` — the minimum and maximum under `sql_cmp`,
//!   which is a total preorder within a class (exact across the numeric
//!   variants, NaN above everything). `t < r` holds for some row of `t`'s
//!   class iff `t < max` and fails for some iff `t >= min`; the other three
//!   operators are the mirror images. A row of the other class compares
//!   UNKNOWN.
//! * whether the result holds a NULL, which compares UNKNOWN with anything.
//!
//! A probe is one of the three forms of [`SublinkSummary`], what the
//! compiled path memoizes per sublink binding in place of the result
//! relation: a sublink in a condition only ever yields a verdict, so
//! `EXISTS` keeps whether a row was found, a scalar sublink its one value,
//! and `ANY` / `ALL` the probe. The path reads one verdict per outer row
//! from the memoized summary; `tests/quant_probe.rs` checks every
//! (quantifier, operator) pair against the fold.

use crate::eval::check_quantified_arity;
use crate::physical::OpRows;
use crate::resilience::MemoCost;
use crate::Result;
use perm_algebra::{CompareOp, SublinkKind};
use perm_storage::{encode_key_into, KeyTable, Relation, Truth, Tuple, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// The comparison class of a non-NULL value: values of different classes
/// are never ordered (`sql_cmp` is `None`) and never equal.
fn class_of(v: &Value) -> Option<usize> {
    match v {
        Value::Null => None,
        Value::Str(_) => Some(1),
        Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Date(_) => Some(0),
    }
}

/// One `ANY` / `ALL` sublink result, summarised (see the module docs).
#[derive(Debug)]
pub struct QuantProbe {
    /// [`perm_storage::encode_key`] of every non-NULL value.
    keys: KeyTable,
    has_null: bool,
    /// `(min, max)` under `sql_cmp` per comparison class (numeric, `Str`);
    /// `None` when the result holds no value of that class.
    bounds: [Option<(Value, Value)>; 2],
    /// Approximate heap bytes of the key set, for the memo's byte
    /// accounting.
    heap_bytes: u64,
}

impl QuantProbe {
    /// Summarises a sublink result in one pass. Fails, before anything is
    /// compared, when the result does not have exactly one attribute.
    pub fn build(result: &Relation) -> Result<QuantProbe> {
        QuantProbe::of_rows(result.schema().arity(), result.tuples())
    }

    /// [`QuantProbe::build`] over `rows` of `arity` columns, borrowed from
    /// wherever the sublink's plan left them.
    pub(crate) fn of_rows(arity: usize, rows: &[Tuple]) -> Result<QuantProbe> {
        check_quantified_arity(arity)?;
        let mut probe = QuantProbe {
            keys: KeyTable::new(),
            has_null: false,
            bounds: [None, None],
            heap_bytes: 0,
        };
        let mut key = Vec::new();
        for row in rows {
            let v = row.get(0);
            let Some(class) = class_of(v) else {
                probe.has_null = true;
                continue;
            };
            key.clear();
            encode_key_into(std::slice::from_ref(v), &mut key);
            if !probe.keys.intern(&key).1 {
                // An equal value is already in the bounds, too.
                continue;
            }
            probe.heap_bytes += key.len() as u64 + 32;
            match &mut probe.bounds[class] {
                None => probe.bounds[class] = Some((v.clone(), v.clone())),
                Some((min, max)) => {
                    if v.sql_cmp(min) == Some(Ordering::Less) {
                        *min = v.clone();
                    } else if v.sql_cmp(max) == Some(Ordering::Greater) {
                        *max = v.clone();
                    }
                }
            }
        }
        Ok(probe)
    }

    /// The verdict of `test op ANY/ALL (result)` — exactly what
    /// [`crate::eval::fold_quantified`] computes over the result's rows.
    pub fn verdict(&self, kind: SublinkKind, op: CompareOp, test: &Value) -> Truth {
        self.verdict_in(kind, op, test, &mut Vec::new())
    }

    /// [`QuantProbe::verdict`], encoding `test`'s key into `key`: one
    /// buffer reused across the test values of a batch.
    pub(crate) fn verdict_in(
        &self,
        kind: SublinkKind,
        op: CompareOp,
        test: &Value,
        key: &mut Vec<u8>,
    ) -> Truth {
        let any = kind == SublinkKind::Any;
        if self.keys.is_empty() && !self.has_null {
            // Nothing to compare: `ANY` is FALSE, `ALL` is TRUE.
            return Truth::from_bool(!any);
        }
        let Some(class) = class_of(test) else {
            return Truth::Unknown;
        };
        // Whether some row compares TRUE, and whether some compares FALSE.
        let (some_true, some_false) = match op {
            CompareOp::Eq | CompareOp::Neq => {
                key.clear();
                encode_key_into(std::slice::from_ref(test), key);
                let member = self.keys.get(key).is_some();
                let other = self.keys.len() > usize::from(member);
                if op == CompareOp::Eq {
                    (member, other)
                } else {
                    (other, member)
                }
            }
            _ => match &self.bounds[class] {
                None => (false, false),
                Some((min, max)) => {
                    let holds = |r: &Value| perm_algebra::compare(op, test, r).is_true();
                    match op {
                        CompareOp::Lt | CompareOp::Le => (holds(max), !holds(min)),
                        _ => (holds(min), !holds(max)),
                    }
                }
            },
        };
        let some_unknown = self.has_null
            || (!matches!(op, CompareOp::Eq | CompareOp::Neq) && self.bounds[1 - class].is_some());
        let decided = if any { some_true } else { some_false };
        if decided {
            Truth::from_bool(any)
        } else if some_unknown {
            Truth::Unknown
        } else {
            Truth::from_bool(!any)
        }
    }
}

/// What a compiled sublink's verdict needs from one execution of its plan
/// (see the module docs). Its size does not depend on how many rows the
/// sublink returned, except through the distinct values an `ANY` / `ALL`
/// probe keeps.
#[derive(Debug)]
pub(crate) enum SublinkSummary {
    /// `EXISTS`: whether the result holds a row.
    Exists(bool),
    /// A scalar sublink: the result's one value, NULL when it is empty.
    Scalar(Value),
    /// `ANY` / `ALL`: the result's probe.
    Quant(QuantProbe),
}

impl SublinkSummary {
    /// Summarises a sublink result for its kind. Fails exactly where a
    /// verdict read from the result would: a scalar result of more than
    /// one row or column, an `ANY` / `ALL` result of other than one column.
    pub(crate) fn build(kind: SublinkKind, result: &OpRows<'_>) -> Result<SublinkSummary> {
        Ok(match kind {
            SublinkKind::Exists => SublinkSummary::Exists(!result.is_empty()),
            SublinkKind::Scalar => {
                SublinkSummary::Scalar(crate::eval::scalar_sublink_value(result)?)
            }
            SublinkKind::Any | SublinkKind::All => SublinkSummary::Quant(QuantProbe::of_rows(
                result.schema().arity(),
                result.tuples(),
            )?),
        })
    }

    /// The value of an `EXISTS` or scalar sublink.
    pub(crate) fn value(&self) -> Value {
        match self {
            SublinkSummary::Exists(found) => Value::Bool(*found),
            SublinkSummary::Scalar(v) => v.clone(),
            SublinkSummary::Quant(_) => unreachable!("an ANY / ALL summary has no value"),
        }
    }

    /// The probe of an `ANY` / `ALL` sublink.
    pub(crate) fn probe(&self) -> &QuantProbe {
        match self {
            SublinkSummary::Quant(probe) => probe,
            _ => unreachable!("only an ANY / ALL summary holds a probe"),
        }
    }
}

impl MemoCost for Arc<SublinkSummary> {
    fn cost_bytes(&self) -> u64 {
        let heap = match &**self {
            SublinkSummary::Exists(_) => 0,
            SublinkSummary::Scalar(Value::Str(s)) => s.len() as u64,
            SublinkSummary::Scalar(_) => 0,
            SublinkSummary::Quant(probe) => probe.heap_bytes,
        };
        std::mem::size_of::<SublinkSummary>() as u64 + heap
    }
}
