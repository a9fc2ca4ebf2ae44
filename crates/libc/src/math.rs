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

/// `double strtod(const char *s, char **endp)`
///
/// Taint: the result carries the whole string's taint, and `*endp`'s 4
/// shadow bytes take the taint of the `s` pointer argument, the rule
/// [`strtoul`](crate::string_fns::strtoul) follows.
pub fn strtod(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let s = crate::helpers::cstr_lossy(ctx, arg(ctx, 0));
    let trimmed = s.trim_start();
    let parsed: String = trimmed
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == '+')
        .collect();
    let v: f64 = parsed.parse().unwrap_or(0.0);
    let endp = arg(ctx, 1);
    if endp != 0 {
        let consumed = (s.len() - trimmed.len()) + parsed.len();
        let base = arg(ctx, 0);
        ctx.mem.write_u32(endp, base.wrapping_add(consumed as u32));
        if tracking(ctx) {
            let t = arg_taint(ctx, 0);
            ctx.shadow.mem.set_range(endp, 4, t);
        }
    }
    let t = crate::helpers::cstr_taint(ctx, arg(ctx, 0));
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, v))
}
