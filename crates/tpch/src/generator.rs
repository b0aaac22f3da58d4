//! A seeded TPC-H style data generator (the `dbgen` stand-in).
//!
//! The generator reproduces the schema, key relationships and value domains
//! that the nine sublink queries rely on (brands, containers, phone country
//! codes, order/ship/commit/receipt date relationships, …). Row counts scale
//! linearly with a scale factor; the four database sizes of Figure 6 (1 MB,
//! 10 MB, 100 MB, 1 GB) map to four geometrically spaced scale factors small
//! enough for the in-memory nested-loop engine.

use crate::schema;
use perm_storage::{Database, Relation, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale of the generated database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchScale {
    /// Linear scale factor; 1.0 corresponds to the official SF-1 row counts.
    pub factor: f64,
}

impl TpchScale {
    /// Creates a scale from a raw factor.
    pub fn new(factor: f64) -> TpchScale {
        TpchScale { factor }
    }

    /// The four named scales of Figure 6 (`examples/tpch_provenance.rs` runs
    /// `xs`), standing in for the paper's 1 MB / 10 MB / 100 MB / 1 GB
    /// databases.
    pub fn named(name: &str) -> Option<TpchScale> {
        match name {
            "xs" => Some(TpchScale::new(0.0004)),
            "s" => Some(TpchScale::new(0.0008)),
            "m" => Some(TpchScale::new(0.0016)),
            "l" => Some(TpchScale::new(0.0032)),
            _ => None,
        }
    }

    fn scaled(&self, base: usize, minimum: usize) -> usize {
        ((base as f64 * self.factor).round() as usize).max(minimum)
    }

    /// Number of supplier rows.
    pub fn suppliers(&self) -> usize {
        self.scaled(10_000, 5)
    }

    /// Number of part rows.
    pub fn parts(&self) -> usize {
        self.scaled(200_000, 20)
    }

    /// Number of customer rows.
    pub fn customers(&self) -> usize {
        self.scaled(150_000, 15)
    }

    /// Number of orders rows.
    pub fn orders(&self) -> usize {
        self.customers() * 10
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const TYPE_SYLLABLE_1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLLABLE_2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLLABLE_3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const SHIP_INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const NAME_WORDS: [&str; 20] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "chartreuse",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "forest",
    "frosted",
];
const COMMENT_WORDS: [&str; 12] = [
    "carefully",
    "quickly",
    "final",
    "special",
    "pending",
    "regular",
    "express",
    "ironic",
    "bold",
    "silent",
    "even",
    "furious",
];

/// Generates a complete TPC-H style database at the given scale with a fixed
/// random seed (the same seed always produces the same database).
pub fn generate(scale: TpchScale, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    // region
    let mut region = Relation::empty(schema::region());
    for (i, name) in REGIONS.iter().enumerate() {
        region.push_unchecked(Tuple::new(vec![
            Value::Int(i as i64),
            Value::str(*name),
            Value::str(comment(&mut rng)),
        ]));
    }
    db.create_or_replace_table("region", region);

    // nation
    let mut nation = Relation::empty(schema::nation());
    for (i, (name, region_key)) in NATIONS.iter().enumerate() {
        nation.push_unchecked(Tuple::new(vec![
            Value::Int(i as i64),
            Value::str(*name),
            Value::Int(*region_key),
            Value::str(comment(&mut rng)),
        ]));
    }
    db.create_or_replace_table("nation", nation);

    // supplier
    let n_suppliers = scale.suppliers();
    let mut supplier = Relation::empty(schema::supplier());
    for key in 1..=n_suppliers {
        // A small fraction of suppliers carry the "Customer Complaints"
        // comment pattern that Q16 filters out.
        let s_comment = if rng.gen_bool(0.05) {
            format!(
                "{} Customer stuff Complaints {}",
                word(&mut rng),
                word(&mut rng)
            )
        } else {
            comment(&mut rng)
        };
        supplier.push_unchecked(Tuple::new(vec![
            Value::Int(key as i64),
            Value::str(format!("Supplier#{key:09}")),
            Value::str(format!(
                "{} street {}",
                word(&mut rng),
                rng.gen_range(1..100)
            )),
            Value::Int(rng.gen_range(0..NATIONS.len() as i64)),
            Value::str(phone(&mut rng)),
            Value::Float(round2(rng.gen_range(-999.99..9999.99))),
            Value::str(s_comment),
        ]));
    }
    db.create_or_replace_table("supplier", supplier);

    // part
    let n_parts = scale.parts();
    let mut part = Relation::empty(schema::part());
    for key in 1..=n_parts {
        let name = format!(
            "{} {} {}",
            NAME_WORDS[rng.gen_range(0..NAME_WORDS.len())],
            NAME_WORDS[rng.gen_range(0..NAME_WORDS.len())],
            NAME_WORDS[rng.gen_range(0..NAME_WORDS.len())]
        );
        let p_type = format!(
            "{} {} {}",
            TYPE_SYLLABLE_1[rng.gen_range(0..TYPE_SYLLABLE_1.len())],
            TYPE_SYLLABLE_2[rng.gen_range(0..TYPE_SYLLABLE_2.len())],
            TYPE_SYLLABLE_3[rng.gen_range(0..TYPE_SYLLABLE_3.len())]
        );
        part.push_unchecked(Tuple::new(vec![
            Value::Int(key as i64),
            Value::str(name),
            Value::str(format!("Manufacturer#{}", rng.gen_range(1..6))),
            Value::str(format!(
                "Brand#{}{}",
                rng.gen_range(1..6),
                rng.gen_range(1..6)
            )),
            Value::str(p_type),
            Value::Int(rng.gen_range(1..51)),
            Value::str(format!(
                "{} {}",
                CONTAINER_1[rng.gen_range(0..CONTAINER_1.len())],
                CONTAINER_2[rng.gen_range(0..CONTAINER_2.len())]
            )),
            Value::Float(round2(
                900.0 + (key % 200) as f64 + rng.gen_range(0.0..100.0),
            )),
            Value::str(comment(&mut rng)),
        ]));
    }
    db.create_or_replace_table("part", part);

    // partsupp: four suppliers per part.
    let mut partsupp = Relation::empty(schema::partsupp());
    for part_key in 1..=n_parts {
        for i in 0..4usize {
            let supp_key = ((part_key + i * (n_suppliers / 4 + 1)) % n_suppliers) + 1;
            partsupp.push_unchecked(Tuple::new(vec![
                Value::Int(part_key as i64),
                Value::Int(supp_key as i64),
                Value::Int(rng.gen_range(1..10_000)),
                Value::Float(round2(rng.gen_range(1.0..1000.0))),
                Value::str(comment(&mut rng)),
            ]));
        }
    }
    db.create_or_replace_table("partsupp", partsupp);

    // customer
    let n_customers = scale.customers();
    let mut customer = Relation::empty(schema::customer());
    for key in 1..=n_customers {
        customer.push_unchecked(Tuple::new(vec![
            Value::Int(key as i64),
            Value::str(format!("Customer#{key:09}")),
            Value::str(format!(
                "{} avenue {}",
                word(&mut rng),
                rng.gen_range(1..100)
            )),
            Value::Int(rng.gen_range(0..NATIONS.len() as i64)),
            Value::str(phone(&mut rng)),
            Value::Float(round2(rng.gen_range(-999.99..9999.99))),
            Value::str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
            Value::str(comment(&mut rng)),
        ]));
    }
    db.create_or_replace_table("customer", customer);

    // orders + lineitem
    let epoch_1992 = Value::parse_date("1992-01-01").unwrap();
    let start_days = match epoch_1992 {
        Value::Date(d) => d,
        _ => unreachable!(),
    };
    let mut orders = Relation::empty(schema::orders());
    let mut lineitem = Relation::empty(schema::lineitem());
    let n_orders = scale.orders();
    for key in 1..=n_orders {
        let order_date = start_days + rng.gen_range(0..2340); // 1992-01-01 .. 1998-05-something
        let cust_key = rng.gen_range(1..=n_customers as i64);
        let n_lines = rng.gen_range(1..=7usize);
        let mut total = 0.0;
        let mut all_f = true;
        for line in 1..=n_lines {
            let part_key = rng.gen_range(1..=n_parts as i64);
            let supp_key = rng.gen_range(1..=n_suppliers as i64);
            let quantity = rng.gen_range(1..=50) as f64;
            let extended = round2(quantity * rng.gen_range(900.0..2000.0));
            let discount = round2(rng.gen_range(0.0..0.1));
            let ship = order_date + rng.gen_range(1..=121);
            let commit = order_date + rng.gen_range(30..=90);
            let receipt = ship + rng.gen_range(1..=30);
            let return_flag = if rng.gen_bool(0.25) { "R" } else { "N" };
            let line_status = if ship > start_days + 1460 { "O" } else { "F" };
            if line_status == "O" {
                all_f = false;
            }
            total += extended;
            lineitem.push_unchecked(Tuple::new(vec![
                Value::Int(key as i64),
                Value::Int(part_key),
                Value::Int(supp_key),
                Value::Int(line as i64),
                Value::Float(quantity),
                Value::Float(extended),
                Value::Float(discount),
                Value::Float(round2(rng.gen_range(0.0..0.08))),
                Value::str(return_flag),
                Value::str(line_status),
                Value::Date(ship),
                Value::Date(commit),
                Value::Date(receipt),
                Value::str(SHIP_INSTRUCTIONS[rng.gen_range(0..SHIP_INSTRUCTIONS.len())]),
                Value::str(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())]),
                Value::str(comment(&mut rng)),
            ]));
        }
        let status = if all_f {
            "F"
        } else if rng.gen_bool(0.5) {
            "O"
        } else {
            "P"
        };
        orders.push_unchecked(Tuple::new(vec![
            Value::Int(key as i64),
            Value::Int(cust_key),
            Value::str(status),
            Value::Float(round2(total)),
            Value::Date(order_date),
            Value::str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
            Value::str(format!("Clerk#{:09}", rng.gen_range(1..1000))),
            Value::Int(0),
            Value::str(comment(&mut rng)),
        ]));
    }
    db.create_or_replace_table("orders", orders);
    db.create_or_replace_table("lineitem", lineitem);

    db
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn phone(rng: &mut StdRng) -> String {
    format!(
        "{}-{:03}-{:03}-{:04}",
        rng.gen_range(10..35),
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    )
}

fn word(rng: &mut StdRng) -> &'static str {
    COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())]
}

fn comment(rng: &mut StdRng) -> String {
    format!("{} {} {}", word(rng), word(rng), word(rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let scale = TpchScale::new(0.0002);
        let a = generate(scale, 42);
        let b = generate(scale, 42);
        for table in a.table_names() {
            assert!(a.table(&table).unwrap().bag_eq(b.table(&table).unwrap()));
        }
        let c = generate(scale, 43);
        assert_ne!(
            a.table("orders").unwrap().tuples()[0],
            c.table("orders").unwrap().tuples()[0]
        );
    }

    #[test]
    fn row_counts_scale_with_the_factor() {
        let small = generate(TpchScale::new(0.0002), 1);
        let large = generate(TpchScale::new(0.0008), 1);
        assert!(large.table("orders").unwrap().len() > small.table("orders").unwrap().len());
        assert_eq!(small.table("region").unwrap().len(), 5);
        assert_eq!(small.table("nation").unwrap().len(), 25);
        // partsupp has exactly four rows per part.
        assert_eq!(
            small.table("partsupp").unwrap().len(),
            4 * small.table("part").unwrap().len()
        );
    }

    #[test]
    fn named_scales_are_increasing() {
        let sizes: Vec<usize> = ["xs", "s", "m", "l"]
            .iter()
            .map(|n| generate(TpchScale::named(n).unwrap(), 7).total_tuples())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(TpchScale::named("bogus").is_none());
    }

    #[test]
    fn referential_relationships_hold() {
        let db = generate(TpchScale::new(0.0003), 99);
        let n_customers = db.table("customer").unwrap().len() as i64;
        let n_parts = db.table("part").unwrap().len() as i64;
        for order in db.table("orders").unwrap().tuples() {
            let cust = order.get(1).as_i64().unwrap();
            assert!(cust >= 1 && cust <= n_customers);
        }
        for line in db.table("lineitem").unwrap().tuples().iter().take(200) {
            let part = line.get(1).as_i64().unwrap();
            assert!(part >= 1 && part <= n_parts);
            // receiptdate > shipdate
            let ship = line.get(10).as_i64().unwrap();
            let receipt = line.get(12).as_i64().unwrap();
            assert!(receipt > ship);
        }
    }

    #[test]
    fn phone_country_codes_are_in_the_q22_domain() {
        let db = generate(TpchScale::new(0.0003), 5);
        for customer in db.table("customer").unwrap().tuples().iter().take(50) {
            let phone = customer.get(4).as_str().unwrap();
            let code: i64 = phone[..2].parse().unwrap();
            assert!((10..35).contains(&code));
        }
    }
}
