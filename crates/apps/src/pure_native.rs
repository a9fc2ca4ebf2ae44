//! Type-III apps (§III-C): "apps written in pure native code" — a
//! `NativeActivity`-style game with **no Java entry point at all**.
//! Everything, including framework access, happens from ARM code
//! through JNI up-calls.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::{Cond, Reg};
use ndroid_jni::dvm_addr;
use ndroid_libc::{libc_addr, libm_addr};

/// A leaking pure-native game: its analytics path reads the last known
/// location through a JNI up-call and ships it with the telemetry.
pub fn native_game_leaky() -> App {
    let mut b = AppBuilder::new(
        "native-game",
        "Type III: pure-native game whose telemetry ships the location",
    );
    let cls = b.data_cstr("Landroid/location/LocationManager;");
    let meth = b.data_cstr("getLastKnownLocation");
    let dest = b.data_cstr("analytics.gamey.example");
    let telemetry = b.data_buffer(256);
    let fmt = b.data_cstr("score=%d loc=%s");

    let main = b.asm.label();
    b.asm.bind(main).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::LR]));
    // --- the "game": a physics loop ---------------------------------
    b.asm.mov_imm(Reg::R4, 0).unwrap(); // score
    b.asm.mov_imm(Reg::R6, 32).unwrap(); // frames
    let frame = b.asm.here_label();
    b.asm.ldr_const(Reg::R0, 2.25f32.to_bits());
    b.asm.call_abs(libm_addr("sqrtf"));
    b.asm.add_imm(Reg::R4, Reg::R4, 3).unwrap();
    b.asm.subs_imm(Reg::R6, Reg::R6, 1).unwrap();
    b.asm.b_cond(Cond::Ne, frame);
    // --- telemetry: location via JNI up-call --------------------------
    b.asm.ldr_const(Reg::R0, cls);
    b.asm.call_abs(dvm_addr("FindClass"));
    b.asm.mov(Reg::R5, Reg::R0);
    b.asm.ldr_const(Reg::R1, meth);
    b.asm.call_abs(dvm_addr("GetStaticMethodID"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.call_abs(dvm_addr("CallStaticObjectMethod")); // tainted jstring
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R5, Reg::R0); // location chars
    // sprintf(telemetry, "score=%d loc=%s", score, loc)
    b.asm.ldr_const(Reg::R0, telemetry);
    b.asm.ldr_const(Reg::R1, fmt);
    b.asm.mov(Reg::R2, Reg::R4);
    b.asm.mov(Reg::R3, Reg::R5);
    b.asm.call_abs(libc_addr("sprintf"));
    // socket/connect/send
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R6, Reg::R0);
    b.asm.ldr_const(Reg::R1, dest);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.ldr_const(Reg::R0, telemetry);
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.mov(Reg::R2, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R6);
    b.asm.ldr_const(Reg::R1, telemetry);
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::PC]));

    let mut app = b.finish_pure_native(main).unwrap();
    app.lib_name = "libmain.so".to_string();
    app
}

/// A benign pure-native game: same physics loop, but the only output
/// is an untainted save file.
pub fn native_game_benign() -> App {
    let mut b = AppBuilder::new(
        "native-puzzle",
        "Type III: pure-native puzzle writing only its own save file",
    );
    let path = b.data_cstr("/data/data/puzzle/save.dat");
    let mode_w = b.data_cstr("w");
    let fmt = b.data_cstr("best=%d");

    let main = b.asm.label();
    b.asm.bind(main).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.mov_imm(Reg::R4, 0).unwrap();
    b.asm.mov_imm(Reg::R5, 16).unwrap();
    let frame = b.asm.here_label();
    b.asm.add_imm(Reg::R4, Reg::R4, 7).unwrap();
    b.asm.subs_imm(Reg::R5, Reg::R5, 1).unwrap();
    b.asm.b_cond(Cond::Ne, frame);
    b.asm.ldr_const(Reg::R0, path);
    b.asm.ldr_const(Reg::R1, mode_w);
    b.asm.call_abs(libc_addr("fopen"));
    b.asm.mov(Reg::R5, Reg::R0);
    b.asm.ldr_const(Reg::R1, fmt);
    b.asm.mov(Reg::R2, Reg::R4);
    b.asm.call_abs(libc_addr("fprintf"));
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.call_abs(libc_addr("fclose"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));

    b.finish_pure_native(main).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    #[test]
    fn leaky_native_game_caught_by_ndroid_only() {
        let sys = native_game_leaky().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::LOCATION_LAST));
        assert_eq!(leaks[0].dest, "analytics.gamey.example");
        assert!(leaks[0].data.starts_with(b"score=96 loc="));

        let sys = native_game_leaky().run(Mode::TaintDroid).unwrap();
        assert!(sys.leaks().is_empty(), "no Java sink ever fires");
        assert_eq!(sys.report().network_log.len(), 1);
    }

    #[test]
    fn benign_native_game_is_clean() {
        let sys = native_game_benign().run(Mode::NDroid).unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(
            sys.kernel.fs.get("/data/data/puzzle/save.dat").map(Vec::as_slice),
            Some(b"best=112".as_slice())
        );
    }

    #[test]
    fn pure_native_app_runs_without_any_java_frames() {
        let sys = native_game_leaky().run(Mode::NDroid).unwrap();
        // Java only executed as JNI up-calls from native (depth returns
        // to zero); no Java entry point exists.
        assert_eq!(sys.dvm.stack.depth(), 0);
        assert!(sys.native_insns() > 100);
    }
}
