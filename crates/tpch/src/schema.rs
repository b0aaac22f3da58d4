//! The TPC-H schema (all eight base relations).

use perm_storage::{Attribute, DataType, Schema};

fn schema(table: &str, columns: &[(&str, DataType)]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|(name, dtype)| Attribute::qualified(table, *name, *dtype))
            .collect(),
    )
}

/// `region(r_regionkey, r_name, r_comment)`.
pub fn region() -> Schema {
    schema(
        "region",
        &[
            ("r_regionkey", DataType::Int),
            ("r_name", DataType::Str),
            ("r_comment", DataType::Str),
        ],
    )
}

/// `nation(n_nationkey, n_name, n_regionkey, n_comment)`.
pub fn nation() -> Schema {
    schema(
        "nation",
        &[
            ("n_nationkey", DataType::Int),
            ("n_name", DataType::Str),
            ("n_regionkey", DataType::Int),
            ("n_comment", DataType::Str),
        ],
    )
}

/// `supplier(s_suppkey, s_name, s_address, s_nationkey, s_phone, s_acctbal, s_comment)`.
pub fn supplier() -> Schema {
    schema(
        "supplier",
        &[
            ("s_suppkey", DataType::Int),
            ("s_name", DataType::Str),
            ("s_address", DataType::Str),
            ("s_nationkey", DataType::Int),
            ("s_phone", DataType::Str),
            ("s_acctbal", DataType::Float),
            ("s_comment", DataType::Str),
        ],
    )
}

/// `customer(c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment)`.
pub fn customer() -> Schema {
    schema(
        "customer",
        &[
            ("c_custkey", DataType::Int),
            ("c_name", DataType::Str),
            ("c_address", DataType::Str),
            ("c_nationkey", DataType::Int),
            ("c_phone", DataType::Str),
            ("c_acctbal", DataType::Float),
            ("c_mktsegment", DataType::Str),
            ("c_comment", DataType::Str),
        ],
    )
}

/// `part(p_partkey, p_name, p_mfgr, p_brand, p_type, p_size, p_container, p_retailprice, p_comment)`.
pub fn part() -> Schema {
    schema(
        "part",
        &[
            ("p_partkey", DataType::Int),
            ("p_name", DataType::Str),
            ("p_mfgr", DataType::Str),
            ("p_brand", DataType::Str),
            ("p_type", DataType::Str),
            ("p_size", DataType::Int),
            ("p_container", DataType::Str),
            ("p_retailprice", DataType::Float),
            ("p_comment", DataType::Str),
        ],
    )
}

/// `partsupp(ps_partkey, ps_suppkey, ps_availqty, ps_supplycost, ps_comment)`.
pub fn partsupp() -> Schema {
    schema(
        "partsupp",
        &[
            ("ps_partkey", DataType::Int),
            ("ps_suppkey", DataType::Int),
            ("ps_availqty", DataType::Int),
            ("ps_supplycost", DataType::Float),
            ("ps_comment", DataType::Str),
        ],
    )
}

/// `orders(o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_clerk, o_shippriority, o_comment)`.
pub fn orders() -> Schema {
    schema(
        "orders",
        &[
            ("o_orderkey", DataType::Int),
            ("o_custkey", DataType::Int),
            ("o_orderstatus", DataType::Str),
            ("o_totalprice", DataType::Float),
            ("o_orderdate", DataType::Date),
            ("o_orderpriority", DataType::Str),
            ("o_clerk", DataType::Str),
            ("o_shippriority", DataType::Int),
            ("o_comment", DataType::Str),
        ],
    )
}

/// `lineitem(l_orderkey, …, l_comment)`.
pub fn lineitem() -> Schema {
    schema(
        "lineitem",
        &[
            ("l_orderkey", DataType::Int),
            ("l_partkey", DataType::Int),
            ("l_suppkey", DataType::Int),
            ("l_linenumber", DataType::Int),
            ("l_quantity", DataType::Float),
            ("l_extendedprice", DataType::Float),
            ("l_discount", DataType::Float),
            ("l_tax", DataType::Float),
            ("l_returnflag", DataType::Str),
            ("l_linestatus", DataType::Str),
            ("l_shipdate", DataType::Date),
            ("l_commitdate", DataType::Date),
            ("l_receiptdate", DataType::Date),
            ("l_shipinstruct", DataType::Str),
            ("l_shipmode", DataType::Str),
            ("l_comment", DataType::Str),
        ],
    )
}

/// All (table name, schema) pairs in dependency order.
pub fn all_tables() -> Vec<(&'static str, Schema)> {
    vec![
        ("region", region()),
        ("nation", nation()),
        ("supplier", supplier()),
        ("customer", customer()),
        ("part", part()),
        ("partsupp", partsupp()),
        ("orders", orders()),
        ("lineitem", lineitem()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tables_have_expected_arity() {
        let arities: Vec<(String, usize)> = all_tables()
            .into_iter()
            .map(|(n, s)| (n.to_string(), s.arity()))
            .collect();
        assert_eq!(
            arities,
            vec![
                ("region".to_string(), 3),
                ("nation".to_string(), 4),
                ("supplier".to_string(), 7),
                ("customer".to_string(), 8),
                ("part".to_string(), 9),
                ("partsupp".to_string(), 5),
                ("orders".to_string(), 9),
                ("lineitem".to_string(), 16),
            ]
        );
    }

    #[test]
    fn attributes_are_qualified_with_the_table_name() {
        assert_eq!(
            lineitem()
                .resolve(Some("lineitem".into()), "l_orderkey".into())
                .unwrap(),
            0
        );
        assert!(lineitem()
            .resolve(Some("orders".into()), "l_orderkey".into())
            .is_err());
    }
}
