//! Scalar function implementations.

use crate::error::{EngineError, Result};
use crate::value::Value;

/// Evaluate scalar function `name` over already-evaluated arguments.
pub fn eval_scalar(name: &str, args: &[Value]) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EngineError::BadFunction(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    // NULL in, NULL out — except coalesce, which exists to absorb NULLs.
    if !name.eq_ignore_ascii_case("coalesce") && args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match name.to_ascii_lowercase().as_str() {
        "abs" => {
            arity(1)?;
            match &args[0] {
                Value::Int(v) => Ok(Value::Int(v.abs())),
                Value::Float(v) => Ok(Value::Float(v.abs())),
                other => Err(EngineError::TypeMismatch(format!("abs({other})"))),
            }
        }
        "round" => {
            if args.len() == 1 {
                match &args[0] {
                    Value::Int(v) => Ok(Value::Int(*v)),
                    Value::Float(v) => Ok(Value::Float(v.round())),
                    other => Err(EngineError::TypeMismatch(format!("round({other})"))),
                }
            } else {
                arity(2)?;
                let digits = match &args[1] {
                    Value::Int(d) => *d,
                    other => return Err(EngineError::TypeMismatch(format!("round(_, {other})"))),
                };
                let factor = 10f64.powi(digits as i32);
                match &args[0] {
                    Value::Int(v) => Ok(Value::Int(*v)),
                    Value::Float(v) => Ok(Value::Float((v * factor).round() / factor)),
                    other => Err(EngineError::TypeMismatch(format!("round({other}, _)"))),
                }
            }
        }
        "floor" => {
            arity(1)?;
            match &args[0] {
                Value::Int(v) => Ok(Value::Int(*v)),
                Value::Float(v) => Ok(Value::Float(v.floor())),
                other => Err(EngineError::TypeMismatch(format!("floor({other})"))),
            }
        }
        "ceil" => {
            arity(1)?;
            match &args[0] {
                Value::Int(v) => Ok(Value::Int(*v)),
                Value::Float(v) => Ok(Value::Float(v.ceil())),
                other => Err(EngineError::TypeMismatch(format!("ceil({other})"))),
            }
        }
        "lower" => {
            arity(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
                other => Err(EngineError::TypeMismatch(format!("lower({other})"))),
            }
        }
        "upper" => {
            arity(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
                other => Err(EngineError::TypeMismatch(format!("upper({other})"))),
            }
        }
        "length" => {
            arity(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(EngineError::TypeMismatch(format!("length({other})"))),
            }
        }
        "coalesce" => Ok(args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null)),
        "substr" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(EngineError::BadFunction("substr expects 2 or 3 arguments".into()));
            }
            let Value::Str(s) = &args[0] else {
                return Err(EngineError::TypeMismatch(format!("substr({})", args[0])));
            };
            let Value::Int(start) = &args[1] else {
                return Err(EngineError::TypeMismatch(format!("substr(_, {})", args[1])));
            };
            let chars: Vec<char> = s.chars().collect();
            // SQL substr is 1-based.
            let begin = (start - 1).max(0) as usize;
            let len = match args.get(2) {
                Some(Value::Int(l)) => (*l).max(0) as usize,
                Some(other) => {
                    return Err(EngineError::TypeMismatch(format!("substr(_, _, {other})")))
                }
                None => chars.len().saturating_sub(begin),
            };
            Ok(Value::Str(chars.iter().skip(begin).take(len).collect()))
        }
        "year" | "month" | "day" => {
            arity(1)?;
            match &args[0] {
                Value::Date(d) => {
                    let (y, m, dd) = d.ymd();
                    Ok(Value::Int(match name.to_ascii_lowercase().as_str() {
                        "year" => y as i64,
                        "month" => m as i64,
                        _ => dd as i64,
                    }))
                }
                other => Err(EngineError::TypeMismatch(format!("{name}({other})"))),
            }
        }
        other => Err(EngineError::BadFunction(format!("unknown function {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_and_round() {
        assert_eq!(eval_scalar("abs", &[Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(eval_scalar("abs", &[Value::Float(-2.5)]).unwrap(), Value::Float(2.5));
        assert_eq!(eval_scalar("round", &[Value::Float(2.6)]).unwrap(), Value::Float(3.0));
        assert_eq!(
            eval_scalar("round", &[Value::Float(2.345), Value::Int(2)]).unwrap(),
            Value::Float(2.35)
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval_scalar("lower", &[Value::str("AbC")]).unwrap(), Value::str("abc"));
        assert_eq!(eval_scalar("upper", &[Value::str("abc")]).unwrap(), Value::str("ABC"));
        assert_eq!(eval_scalar("length", &[Value::str("abcd")]).unwrap(), Value::Int(4));
        assert_eq!(
            eval_scalar("substr", &[Value::str("hello"), Value::Int(2), Value::Int(3)]).unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            eval_scalar("substr", &[Value::str("hello"), Value::Int(3)]).unwrap(),
            Value::str("llo")
        );
    }

    #[test]
    fn date_parts() {
        let d = Value::date("2021-12-25");
        assert_eq!(eval_scalar("year", std::slice::from_ref(&d)).unwrap(), Value::Int(2021));
        assert_eq!(eval_scalar("month", std::slice::from_ref(&d)).unwrap(), Value::Int(12));
        assert_eq!(eval_scalar("day", &[d]).unwrap(), Value::Int(25));
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        assert_eq!(
            eval_scalar("coalesce", &[Value::Null, Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(eval_scalar("coalesce", &[Value::Null, Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagates() {
        assert_eq!(eval_scalar("abs", &[Value::Null]).unwrap(), Value::Null);
        assert_eq!(eval_scalar("year", &[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn wrong_arity_is_error() {
        assert!(eval_scalar("abs", &[Value::Int(1), Value::Int(2)]).is_err());
        assert!(eval_scalar("nope", &[Value::Int(1)]).is_err());
    }
}
