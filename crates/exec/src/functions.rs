//! Scalar function implementations: `LIKE` pattern matching and the built-in
//! functions needed by the TPC-H sublink queries.

use crate::{ExecError, Result};
use perm_storage::{civil_from_days, empty_str, Truth, Value};

/// SQL `LIKE` matching with `%` (any sequence) and `_` (any single
/// character) wildcards. Returns [`Truth::Unknown`] when either operand is
/// NULL.
pub fn sql_like(value: &Value, pattern: &Value) -> Truth {
    match (value, pattern) {
        (Value::Null, _) | (_, Value::Null) => Truth::Unknown,
        (Value::Str(v), Value::Str(p)) => Truth::from_bool(like_match(v, p)),
        _ => Truth::False,
    }
}

/// Core `LIKE` matcher over string slices (greedy backtracking on `%`).
pub fn like_match(value: &str, pattern: &str) -> bool {
    let v: Vec<char> = value.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    like_rec(&v, &p)
}

fn like_rec(v: &[char], p: &[char]) -> bool {
    match p.first() {
        None => v.is_empty(),
        Some('%') => {
            // `%` matches any (possibly empty) sequence.
            (0..=v.len()).any(|skip| like_rec(&v[skip..], &p[1..]))
        }
        Some('_') => !v.is_empty() && like_rec(&v[1..], &p[1..]),
        Some(c) => !v.is_empty() && v[0] == *c && like_rec(&v[1..], &p[1..]),
    }
}

/// `substring(s, start, len)` with SQL's 1-based `start`.
pub fn substring(s: &Value, start: &Value, len: Option<&Value>) -> Result<Value> {
    if s.is_null() || start.is_null() || len.map(|l| l.is_null()).unwrap_or(false) {
        return Ok(Value::Null);
    }
    let text = s
        .as_str()
        .ok_or_else(|| ExecError::Type("substring expects a string".into()))?;
    let start = start
        .as_i64()
        .ok_or_else(|| ExecError::Type("substring start must be numeric".into()))?;
    // Character positions to byte offsets, then one allocation for the
    // piece (none for an empty piece or the whole string).
    let begin = (start.max(1) - 1) as usize;
    let Some((from, _)) = text.char_indices().nth(begin) else {
        return Ok(Value::Str(empty_str()));
    };
    let tail = &text[from..];
    let piece = match len {
        None => tail,
        Some(l) => {
            let l = l
                .as_i64()
                .ok_or_else(|| ExecError::Type("substring length must be numeric".into()))?;
            match tail.char_indices().nth(l.max(0) as usize) {
                Some((to, _)) => &tail[..to],
                None => tail,
            }
        }
    };
    Ok(match piece.len() {
        0 => Value::Str(empty_str()),
        n if n == text.len() => s.clone(),
        _ => Value::str(piece),
    })
}

/// `abs(x)`.
pub fn abs(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => Ok(Value::Int(i.abs())),
        Value::Float(f) => Ok(Value::Float(f.abs())),
        _ => Err(ExecError::Type("abs expects a number".into())),
    }
}

/// `coalesce(a, b, …)`: the first non-NULL argument (NULL if all are NULL).
pub fn coalesce(args: &[Value]) -> Value {
    args.iter()
        .find(|v| !v.is_null())
        .cloned()
        .unwrap_or(Value::Null)
}

/// `lower(s)` / `upper(s)`.
pub fn change_case(v: &Value, upper: bool) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::str(if upper {
            s.to_uppercase()
        } else {
            s.to_lowercase()
        })),
        _ => Err(ExecError::Type("lower/upper expects a string".into())),
    }
}

/// `length(s)` in characters.
pub fn length(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
        _ => Err(ExecError::Type("length expects a string".into())),
    }
}

/// `date('YYYY-MM-DD')`: parses a string (or passes a date through).
pub fn to_date(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Date(_) => Ok(v.clone()),
        Value::Str(s) => Value::parse_date(s)
            .ok_or_else(|| ExecError::Type(format!("invalid date literal `{s}`"))),
        _ => Err(ExecError::Type("date expects a string".into())),
    }
}

/// `year(d)`: extracts the year of a date value.
pub fn year(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Date(d) => {
            let (y, _, _) = civil_from_days(*d as i64);
            Ok(Value::Int(y))
        }
        _ => Err(ExecError::Type("year expects a date".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_wildcards() {
        assert!(like_match("BRASS", "%RASS"));
        assert!(like_match("STANDARD BRUSHED BRASS", "%BRASS"));
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("abc", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "a_d"));
        assert!(!like_match("abc", "abcd"));
        assert!(like_match("MEDIUM POLISHED", "MEDIUM POLISHED%"));
        assert!(!like_match("SMALL POLISHED", "MEDIUM POLISHED%"));
        assert!(like_match("promo burnished", "%promo%"));
    }

    #[test]
    fn like_null_is_unknown() {
        assert_eq!(sql_like(&Value::Null, &Value::str("%")), Truth::Unknown);
        assert_eq!(sql_like(&Value::str("x"), &Value::str("x")), Truth::True);
    }

    #[test]
    fn substring_is_one_based() {
        let s = Value::str("Customer#000001");
        assert_eq!(
            substring(&s, &Value::Int(1), Some(&Value::Int(8))).unwrap(),
            Value::str("Customer")
        );
        assert_eq!(
            substring(&Value::str("13-345"), &Value::Int(1), Some(&Value::Int(2))).unwrap(),
            Value::str("13")
        );
        assert_eq!(
            substring(&Value::str("abc"), &Value::Int(5), Some(&Value::Int(2))).unwrap(),
            Value::str("")
        );
        assert_eq!(
            substring(&Value::Null, &Value::Int(1), None).unwrap(),
            Value::Null
        );
    }

    /// The byte-offset substring equals slicing the character vector, on
    /// multi-byte text and at every edge; the whole string comes back
    /// shared, and a bad length is only an error where a piece is cut.
    #[test]
    fn substring_equals_the_character_slice() {
        let reference = |text: &str, start: i64, len: Option<i64>| -> String {
            let chars: Vec<char> = text.chars().collect();
            let begin = (start.max(1) - 1) as usize;
            if begin >= chars.len() {
                return String::new();
            }
            let end = len.map_or(chars.len(), |l| {
                (begin + l.max(0) as usize).min(chars.len())
            });
            chars[begin..end].iter().collect()
        };
        for text in ["", "a", "13-345", "späté 🚀x"] {
            let v = Value::str(text);
            for start in [-2, 0, 1, 2, 4, 5, 8, 9, 20] {
                for len in [None, Some(-1), Some(0), Some(1), Some(3), Some(100)] {
                    let got = substring(&v, &Value::Int(start), len.map(Value::Int).as_ref());
                    let want = Value::str(reference(text, start, len));
                    assert_eq!(got.unwrap(), want, "{text:?} from {start} for {len:?}");
                }
            }
        }
        let whole = Value::str("whole");
        let (Value::Str(a), Ok(Value::Str(b))) = (&whole, substring(&whole, &Value::Int(1), None))
        else {
            unreachable!()
        };
        assert!(std::sync::Arc::ptr_eq(a, &b));
        let bad = Value::str("x");
        assert!(substring(&Value::str("abc"), &Value::Int(1), Some(&bad)).is_err());
        assert_eq!(
            substring(&Value::str("abc"), &Value::Int(5), Some(&bad)).unwrap(),
            Value::str("")
        );
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        assert_eq!(
            coalesce(&[Value::Null, Value::Int(3), Value::Int(4)]),
            Value::Int(3)
        );
        assert_eq!(coalesce(&[Value::Null, Value::Null]), Value::Null);
        assert_eq!(coalesce(&[]), Value::Null);
    }

    #[test]
    fn date_and_year() {
        let d = to_date(&Value::str("1995-06-17")).unwrap();
        assert_eq!(year(&d).unwrap(), Value::Int(1995));
        assert!(to_date(&Value::str("bogus")).is_err());
    }

    #[test]
    fn abs_and_case_and_length() {
        assert_eq!(abs(&Value::Int(-3)).unwrap(), Value::Int(3));
        assert_eq!(abs(&Value::Float(-2.5)).unwrap(), Value::Float(2.5));
        assert_eq!(
            change_case(&Value::str("AbC"), false).unwrap(),
            Value::str("abc")
        );
        assert_eq!(
            change_case(&Value::str("AbC"), true).unwrap(),
            Value::str("ABC")
        );
        assert_eq!(length(&Value::str("hello")).unwrap(), Value::Int(5));
        assert_eq!(length(&Value::Null).unwrap(), Value::Null);
    }
}
