//! Modeled libm functions (Table VI, right column).
//!
//! Arguments use the soft-float EABI: an `f64` occupies R0:R1 (or
//! R2:R3 for a second operand), an `f32` occupies one register, and
//! results return the same way. Taint propagation: the result carries
//! the union of the input registers' shadow taints.

use ndroid_emu::runtime::{arg, arg_taint, set_ret_taint, set_ret_taint64, NativeCtx};
use ndroid_emu::EmuError;

fn d_arg(ctx: &NativeCtx<'_>, lo: usize) -> f64 {
    f64::from_bits((arg(ctx, lo) as u64) | ((arg(ctx, lo + 1) as u64) << 32))
}

fn d_ret(ctx: &mut NativeCtx<'_>, v: f64) -> u32 {
    let bits = v.to_bits();
    ctx.cpu.regs[1] = (bits >> 32) as u32;
    bits as u32
}

fn unary_d(ctx: &mut NativeCtx<'_>, f: fn(f64) -> f64) -> Result<u32, EmuError> {
    let x = d_arg(ctx, 0);
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1);
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, f(x)))
}

fn binary_d(ctx: &mut NativeCtx<'_>, f: fn(f64, f64) -> f64) -> Result<u32, EmuError> {
    let x = d_arg(ctx, 0);
    let y = d_arg(ctx, 2);
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1) | arg_taint(ctx, 2) | arg_taint(ctx, 3);
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, f(x, y)))
}

fn unary_f(ctx: &mut NativeCtx<'_>, f: fn(f32) -> f32) -> Result<u32, EmuError> {
    let x = f32::from_bits(arg(ctx, 0));
    let t = arg_taint(ctx, 0);
    set_ret_taint(ctx, t);
    Ok(f(x).to_bits())
}

/// `double sin(double)`
pub fn sin(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::sin)
}
/// `double cos(double)`
pub fn cos(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::cos)
}
/// `double tan(double)`
pub fn tan(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::tan)
}
/// `double sqrt(double)`
pub fn sqrt(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::sqrt)
}
/// `double floor(double)`
pub fn floor(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::floor)
}
/// `double ceil(double)`
pub fn ceil(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::ceil)
}
/// `double log(double)`
pub fn log(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::ln)
}
/// `double log10(double)`
pub fn log10(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::log10)
}
/// `double exp(double)`
pub fn exp(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::exp)
}
/// `double asin(double)`
pub fn asin(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::asin)
}
/// `double acos(double)`
pub fn acos(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::acos)
}
/// `double atan(double)`
pub fn atan(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::atan)
}
/// `double sinh(double)`
pub fn sinh(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::sinh)
}
/// `double cosh(double)`
pub fn cosh(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_d(ctx, f64::cosh)
}
/// `double pow(double, double)`
pub fn pow(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    binary_d(ctx, f64::powf)
}
/// `double atan2(double, double)`
pub fn atan2(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    binary_d(ctx, f64::atan2)
}
/// `double fmod(double, double)`
pub fn fmod(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    binary_d(ctx, |a, b| a % b)
}
/// `double ldexp(double x, int n)` — `x * 2^n`.
pub fn ldexp(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let x = d_arg(ctx, 0);
    let n = arg(ctx, 2) as i32;
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1) | arg_taint(ctx, 2);
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, x * (2f64).powi(n)))
}
/// `float sinf(float)`
pub fn sinf(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_f(ctx, f32::sin)
}
/// `float cosf(float)`
pub fn cosf(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_f(ctx, f32::cos)
}
/// `float sqrtf(float)`
pub fn sqrtf(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_f(ctx, f32::sqrt)
}
/// `float expf(float)`
pub fn expf(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    unary_f(ctx, f32::exp)
}
/// `float powf(float, float)`
pub fn powf(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let x = f32::from_bits(arg(ctx, 0));
    let y = f32::from_bits(arg(ctx, 1));
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1);
    set_ret_taint(ctx, t);
    Ok(x.powf(y).to_bits())
}
/// `float atan2f(float, float)`
pub fn atan2f(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let x = f32::from_bits(arg(ctx, 0));
    let y = f32::from_bits(arg(ctx, 1));
    let t = arg_taint(ctx, 0) | arg_taint(ctx, 1);
    set_ret_taint(ctx, t);
    Ok(x.atan2(y).to_bits())
}
/// `double strtod(const char *s, char **endp)`
pub fn strtod(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
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
    }
    let t = crate::helpers::cstr_taint(ctx, arg(ctx, 0));
    set_ret_taint64(ctx, t);
    Ok(d_ret(ctx, v))
}
