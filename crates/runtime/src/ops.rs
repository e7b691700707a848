//! Value-semantics kernel shared by the interpreter and the bytecode VM.
//!
//! Both execution backends must agree bit-for-bit on arithmetic,
//! comparison and implicit conversion; keeping the kernel in one place
//! makes the differential guarantees (the tier-parity harness,
//! `grafter_workloads::harness::check_parity`) a property of dispatch,
//! not of duplicated arithmetic. Where values live
//! (node, global and local frame slots) is [`crate::Layouts`]' business.

use grafter_frontend::{BinOp, FieldId, FieldKind, Program, Ty, UnOp};

use crate::Value;

/// The value type of the final element of a data chain.
///
/// Determines the store coercion of every tree/local/global write; both
/// backends must resolve it identically.
///
/// # Panics
///
/// Panics if the chain is empty or ends at a child field (sema
/// guarantees neither happens).
pub fn field_ty(program: &Program, chain: &[FieldId]) -> Ty {
    let last = chain.last().expect("nonempty data chain");
    match program.fields[last.index()].kind {
        FieldKind::Data(t) => t,
        FieldKind::Child(_) => unreachable!("data chains end at data fields"),
    }
}

/// Coerces a value to a declared type (C++-style implicit int<->float).
pub fn coerce(ty: Ty, v: Value) -> Value {
    match (ty, v) {
        (Ty::Int, Value::Float(f)) => Value::Int(f as i64),
        (Ty::Float, Value::Int(i)) => Value::Float(i as f64),
        _ => v,
    }
}

/// Applies a non-short-circuiting binary operator.
///
/// Integer division and remainder by zero yield 0 (the deterministic
/// stand-in both backends share); mixed int/float operands promote to
/// float, mirroring the C++ the paper's generated code runs as.
///
/// # Panics
///
/// Panics if an operand has a type the operator cannot accept (the same
/// ill-typed programs panic identically in both backends).
#[inline]
pub fn binop(op: BinOp, l: Value, r: Value) -> Value {
    use Value::*;
    let both_int = matches!((l, r), (Int(_), Int(_)));
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
            if both_int {
                let (a, b) = (l.as_i64(), r.as_i64());
                Int(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    _ => unreachable!(),
                })
            } else {
                let (a, b) = (l.as_f64(), r.as_f64());
                Float(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    _ => unreachable!(),
                })
            }
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (a, b) = (l.as_f64(), r.as_f64());
            Bool(match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            })
        }
        BinOp::Eq => Bool(values_equal(l, r)),
        BinOp::Ne => Bool(!values_equal(l, r)),
        BinOp::And | BinOp::Or => unreachable!("short-circuited before binop"),
    }
}

/// Applies a unary operator.
///
/// Integer negation wraps (so `-i64::MIN` is deterministic in every
/// build profile, matching [`binop`]'s wrapping arithmetic — and the
/// VM, which evaluates through this same kernel).
///
/// # Panics
///
/// Panics if the operand has a type the operator cannot accept (the
/// same ill-typed programs panic identically in both backends).
#[inline]
pub fn unop(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Neg => match v {
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Float(f) => Value::Float(-f),
            other => panic!("cannot negate {other:?}"),
        },
        UnOp::Not => Value::Bool(!v.as_bool()),
    }
}

/// Equality across the value kinds (numeric values compare numerically).
pub fn values_equal(l: Value, r: Value) -> bool {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Ref(a), Value::Ref(b)) => a == b,
        _ => l.as_f64() == r.as_f64(),
    }
}
