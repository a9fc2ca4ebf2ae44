//! Modeled libm functions (Table VI, right column).
//!
//! Arguments use the soft-float EABI: an `f64` occupies R0:R1 (or
//! R2:R3 for a second operand), an `f32` occupies one register, and
//! results return the same way. Taint propagation: the result carries
//! the union of the input registers' shadow taints.
//!
//! Most rows are one of four shapes, [`unary_d`], [`binary_d`],
//! [`unary_f`] and [`binary_f`], bound to a host operation in the
//! registry's libm table.

use ndroid_emu::runtime::{arg, arg_taint, set_ret_taint, set_ret_taint64, tracking, NativeCtx};
use ndroid_emu::EmuError;

fn d_arg(ctx: &NativeCtx<'_>, lo: usize) -> f64 {
    f64::from_bits((arg(ctx, lo) as u64) | ((arg(ctx, lo + 1) as u64) << 32))
}

fn d_ret(ctx: &mut NativeCtx<'_>, v: f64) -> u32 {
    let bits = v.to_bits();
    ctx.cpu.regs[1] = (bits >> 32) as u32;
    bits as u32
}

/// A `double f(double)` row: `f` of R0:R1, tainted with both words.
pub fn unary_d(ctx: &mut NativeCtx<'_>, f: fn(f64) -> f64) -> Result<u32, EmuError> {
    let x = d_arg(ctx, 0);
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1);
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, f(x)))
}

/// A `double f(double, double)` row: `f` of R0:R1 and R2:R3, tainted
/// with all four words.
pub fn binary_d(ctx: &mut NativeCtx<'_>, f: fn(f64, f64) -> f64) -> Result<u32, EmuError> {
    let x = d_arg(ctx, 0);
    let y = d_arg(ctx, 2);
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1) | arg_taint(ctx, 2) | arg_taint(ctx, 3);
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, f(x, y)))
}

/// A `float f(float)` row: `f` of R0, tainted with R0.
pub fn unary_f(ctx: &mut NativeCtx<'_>, f: fn(f32) -> f32) -> Result<u32, EmuError> {
    let x = f32::from_bits(arg(ctx, 0));
    let t = arg_taint(ctx, 0);
    set_ret_taint(ctx, t);
    Ok(f(x).to_bits())
}

/// A `float f(float, float)` row: `f` of R0 and R1, tainted with both.
pub fn binary_f(ctx: &mut NativeCtx<'_>, f: fn(f32, f32) -> f32) -> Result<u32, EmuError> {
    let x = f32::from_bits(arg(ctx, 0));
    let y = f32::from_bits(arg(ctx, 1));
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1);
    set_ret_taint(ctx, t);
    Ok(f(x, y).to_bits())
}

/// `double ldexp(double x, int n)` — `x * 2^n`.
pub fn ldexp(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let x = d_arg(ctx, 0);
    let n = arg(ctx, 2) as i32;
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1) | arg_taint(ctx, 2);
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, x * (2f64).powi(n)))
}

/// `double strtod(const char *s, char **endp)`: C's longest valid
/// prefix after leading white space — an optional sign, then digits
/// with an optional fraction and an exponent only when digits follow
/// its `e`, or `inf`/`infinity`/`nan` in any case. When nothing
/// converts the result is 0 and `*endp` is `s`. Hexadecimal floats are
/// not parsed (`"0x1p3"` reads as 0, ending at the `x`).
///
/// Taint: the result carries the whole string's taint, and `*endp`'s 4
/// shadow bytes take the taint of the `s` pointer argument, the rule
/// [`strtoul`](crate::string_fns::strtoul) follows.
pub fn strtod(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let base = arg(ctx, 0);
    let (v, consumed) = parse_strtod(&ctx.mem.cstr_bytes(base));
    let endp = arg(ctx, 1);
    if endp != 0 {
        ctx.mem.write_u32(endp, base.wrapping_add(consumed as u32));
        if tracking(ctx) {
            let t = arg_taint(ctx, 0);
            ctx.shadow.mem.set_range(endp, 4, t);
        }
    }
    let t = crate::helpers::cstr_taint(ctx, base);
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, v))
}

/// The value of `strtod`'s longest valid prefix of `s`, and the bytes
/// it spans (0 when nothing converts).
fn parse_strtod(s: &[u8]) -> (f64, usize) {
    let digits = |at: usize| s[at.min(s.len())..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut start = s.iter().take_while(|&&b| b == b' ' || (b'\t'..=b'\r').contains(&b)).count();
    let negative = s.get(start) == Some(&b'-');
    if matches!(s.get(start), Some(b'+' | b'-')) {
        start += 1;
    }
    let sign = if negative { -1.0 } else { 1.0 };
    let rest = &s[start..];
    let word = |w: &[u8]| rest.get(..w.len()).is_some_and(|p| p.eq_ignore_ascii_case(w));
    if word(b"infinity") {
        return (sign * f64::INFINITY, start + 8);
    }
    if word(b"inf") {
        return (sign * f64::INFINITY, start + 3);
    }
    if word(b"nan") {
        return (f64::NAN, start + 3);
    }
    let int = digits(start);
    let mut end = start + int;
    let frac = if s.get(end) == Some(&b'.') { digits(end + 1) } else { 0 };
    if int + frac == 0 {
        return (0.0, 0);
    }
    if s.get(end) == Some(&b'.') {
        end += 1 + frac;
    }
    if matches!(s.get(end), Some(b'e' | b'E')) {
        let sign_len = usize::from(matches!(s.get(end + 1), Some(b'+' | b'-')));
        let exp = digits(end + 1 + sign_len);
        if exp > 0 {
            end += 1 + sign_len + exp;
        }
    }
    // The span is ASCII that Rust's float grammar accepts.
    let text = std::str::from_utf8(&s[start..end]).unwrap_or_default();
    (sign * text.parse::<f64>().unwrap_or(0.0), end)
}

