//! One resolution rule, three implementations: the scope chain the
//! optimizer and the compiler resolve through (`Scopes::resolve`), the
//! totality checks' `visit::resolves`, and the reference interpreter's
//! `Env::lookup`. A column resolves in the innermost scope that knows its
//! name; ambiguity there is an error, not a fall-through to a scope further
//! out; a name no scope knows is unknown. Every case is checked on chains of
//! one, two and three scopes.

use perm::prelude::*;
use perm_algebra::visit::resolves;
use perm_algebra::Scopes;
use perm_exec::eval::Env;
use perm_exec::ExecError;
use perm_storage::{Attribute, DataType, Name, StorageError};

/// What a reference resolves to on a chain.
#[derive(Debug, PartialEq)]
enum Expected {
    /// Scope depth (0 innermost) and attribute index.
    Found(usize, usize),
    Ambiguous,
    Unknown,
}
use Expected::*;

/// Innermost first: `r.a r.b s.b`, `t.c t.x u.x`, `v.a v.c v.e v.x`.
fn schemas() -> Vec<Schema> {
    let scope = |attrs: &[(&str, &str)]| {
        Schema::new(
            attrs
                .iter()
                .map(|(q, n)| Attribute::qualified(*q, *n, DataType::Int))
                .collect(),
        )
    };
    vec![
        scope(&[("r", "a"), ("r", "b"), ("s", "b")]),
        scope(&[("t", "c"), ("t", "x"), ("u", "x")]),
        scope(&[("v", "a"), ("v", "c"), ("v", "e"), ("v", "x")]),
    ]
}

/// The row bound in scope `depth`: attribute `i` holds `10 · depth + i`.
fn tuples(schemas: &[Schema]) -> Vec<Tuple> {
    schemas
        .iter()
        .enumerate()
        .map(|(depth, schema)| {
            Tuple::new(
                (0..schema.arity())
                    .map(|i| Value::Int((10 * depth + i) as i64))
                    .collect(),
            )
        })
        .collect()
}

/// Calls `f` with the chain of `schemas`, `schemas[0]` innermost.
fn with_scopes(schemas: &[Schema], parent: Option<&Scopes<'_>>, f: &mut dyn FnMut(&Scopes<'_>)) {
    let (outermost, inner) = schemas.split_last().unwrap();
    let scope = Scopes::new(outermost, parent);
    match inner {
        [] => f(&scope),
        _ => with_scopes(inner, Some(&scope), f),
    }
}

/// Calls `f` with the environment binding `tuples[i]` under `schemas[i]`.
fn with_env(
    schemas: &[Schema],
    tuples: &[Tuple],
    parent: Option<&Env<'_>>,
    f: &mut dyn FnMut(&Env<'_>),
) {
    let (outermost, inner) = schemas.split_last().unwrap();
    let (row, rows) = tuples.split_last().unwrap();
    let env = Env::new(parent, outermost, row);
    match inner {
        [] => f(&env),
        _ => with_env(inner, rows, Some(&env), f),
    }
}

#[test]
fn the_chain_the_totality_checks_and_the_interpreter_resolve_alike() {
    // (chain depth, qualifier, name, expected)
    let cases: &[(usize, Option<&str>, &str, Expected)] = &[
        // Unique in the innermost scope (`a` is in the outermost too).
        (1, None, "a", Found(0, 0)),
        (3, None, "a", Found(0, 0)),
        (2, Some("r"), "b", Found(0, 1)),
        (3, Some("S"), "B", Found(0, 2)),
        // Absent there, found further out.
        (2, None, "c", Found(1, 0)),
        (3, None, "c", Found(1, 0)),
        (3, Some("v"), "c", Found(2, 1)),
        (3, None, "e", Found(2, 2)),
        (2, Some("u"), "x", Found(1, 2)),
        (3, Some("v"), "a", Found(2, 0)),
        // Ambiguous in the innermost scope that knows it: an error, though
        // a scope further out knows the name once (`v.x`).
        (1, None, "b", Ambiguous),
        (3, None, "b", Ambiguous),
        (2, None, "x", Ambiguous),
        (3, None, "x", Ambiguous),
        // Absent from every scope.
        (1, None, "c", Unknown),
        (2, None, "e", Unknown),
        (3, None, "z", Unknown),
        (3, Some("v"), "b", Unknown),
        (3, Some("w"), "a", Unknown),
    ];
    let schemas = schemas();
    let tuples = tuples(&schemas);
    for (depth, qualifier, name, expected) in cases {
        let label = format!("{qualifier:?}.{name} on a chain of {depth}");
        let (qualifier, name) = (qualifier.map(Name::from), Name::from(*name));
        let chain = &schemas[..*depth];

        with_scopes(chain, None, &mut |scopes| {
            let resolved = match scopes.resolve(qualifier, name) {
                Ok(Some((depth, index))) => Found(depth, index),
                Ok(None) => Unknown,
                Err(StorageError::AmbiguousAttribute(_)) => Ambiguous,
                Err(other) => panic!("{label}: {other:?}"),
            };
            assert_eq!(&resolved, expected, "Scopes::resolve, {label}");
            assert_eq!(
                resolves(scopes, qualifier, name),
                matches!(expected, Found(..)),
                "visit::resolves, {label}"
            );
        });

        with_env(chain, &tuples[..*depth], None, &mut |env| match (
            env.lookup(qualifier, name),
            expected,
        ) {
            (Ok(value), Found(depth, index)) => {
                assert_eq!(value, Value::Int((10 * depth + index) as i64), "{label}")
            }
            (Err(ExecError::Storage(StorageError::AmbiguousAttribute(_))), Ambiguous)
            | (Err(ExecError::Storage(StorageError::UnknownAttribute(_))), Unknown) => {}
            (got, _) => panic!("Env::lookup, {label}: {got:?}, expected {expected:?}"),
        });
    }
}
