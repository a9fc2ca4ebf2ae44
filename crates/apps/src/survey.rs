//! The eight manually-driven apps of §VI: "NDroid found that 3 apps
//! delivered the contact and SMS information to native code. One app
//! (i.e., ephone3.3) further sends out the contact information through
//! native code."
//!
//! The set: ePhone (delivers + leaks), two apps that deliver
//! contacts/SMS to native code without leaking, and five apps that use
//! JNI without touching phone/SMS/contact data at all.

use crate::builder::{App, AppBuilder};
use crate::{benign, ephone};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// One app of the manual-survey set, with ground-truth behaviour.
#[derive(Debug)]
pub struct SurveyEntry {
    /// The app.
    pub app: App,
    /// Whether the app delivers contact/SMS data into native code.
    pub delivers_to_native: bool,
    /// Whether the app actually leaks it.
    pub leaks: bool,
}

/// An app that passes contact data to native code which only hashes it
/// locally (delivers, does not leak).
fn contacts_backup(name: &str, sink_free: bool) -> App {
    let mut b = AppBuilder::new(name, "delivers contacts to native code; no exfiltration");
    let c = b.class("Lapp/Backup;");
    let scratch = b.data_buffer(128);

    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.ldr_const(Reg::R0, scratch);
    b.asm.call_abs(libc_addr("strcpy"));
    b.asm.mov_imm(Reg::R0, 0).unwrap();
    b.asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
    let stash = b.native_method(c, "stash", "IL", true, entry);

    let contact = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryName")
        .unwrap();
    let mut code = vec![
        DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: contact,
            args: vec![],
        },
        DexInsn::MoveResult { dst: 0 },
        DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: stash,
            args: vec![0],
        },
    ];
    let _ = sink_free;
    code.push(DexInsn::ReturnVoid);
    b.method(
        c,
        MethodDef::new("main", "V", MethodKind::Bytecode(code)).with_registers(1),
    );
    b.finish("Lapp/Backup;", "main").unwrap()
}

/// An app that passes the last SMS to native code for local archiving.
fn sms_archiver() -> App {
    let mut b = AppBuilder::new("sms-archiver", "delivers SMS to native code; no exfiltration");
    let c = b.class("Lapp/Archive;");
    let scratch = b.data_buffer(256);

    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.ldr_const(Reg::R0, scratch);
    b.asm.call_abs(libc_addr("strcpy"));
    b.asm.mov_imm(Reg::R0, 0).unwrap();
    b.asm.pop(RegList::of(&[Reg::PC]));
    let archive = b.native_method(c, "archive", "IL", true, entry);

    let sms = b
        .program
        .find_method_by_name("Landroid/provider/SmsProvider;", "queryLastMessage")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: sms,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: archive,
                    args: vec![0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.finish("Lapp/Archive;", "main").unwrap()
}

/// The full survey set (8 apps), ground truth attached.
pub fn survey_apps() -> Vec<SurveyEntry> {
    vec![
        SurveyEntry {
            app: ephone::ephone(),
            delivers_to_native: true,
            leaks: true,
        },
        SurveyEntry {
            app: contacts_backup("contact-widget", false),
            delivers_to_native: true,
            leaks: false,
        },
        SurveyEntry {
            app: sms_archiver(),
            delivers_to_native: true,
            leaks: false,
        },
        SurveyEntry {
            app: benign::physics_game(),
            delivers_to_native: false,
            leaks: false,
        },
        SurveyEntry {
            app: benign::audio_license_check(),
            delivers_to_native: false, // IMEI, not contact/SMS data
            leaks: false,
        },
        SurveyEntry {
            app: benign::dsp_filter(),
            delivers_to_native: false,
            leaks: false,
        },
        SurveyEntry {
            app: benign::dsp_filter(),
            delivers_to_native: false,
            leaks: false,
        },
        SurveyEntry {
            app: benign::physics_game(),
            delivers_to_native: false,
            leaks: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::{ProvEvent, ProvenanceLevel, SystemConfig};
    use ndroid_dvm::Taint;

    #[test]
    fn survey_reproduces_section_vi_counts() {
        let mut delivered = 0;
        let mut leaked = 0;
        for entry in survey_apps() {
            let name = entry.app.name.clone();
            let sys = entry
                .app
                .run_with(SystemConfig::ndroid().provenance(ProvenanceLevel::Summary))
                .unwrap();
            // "Delivered to native": a JNI entry whose argument taint
            // carries the contact or SMS bit.
            let delivered_here = sys.prov_events().iter().any(|ev| {
                matches!(ev, ProvEvent::JniEntry { label, .. }
                    if Taint(*label).intersects(Taint::CONTACTS | Taint::SMS))
            });
            let leaked_here = sys
                .leaks()
                .iter()
                .any(|l| l.taint.intersects(Taint::CONTACTS | Taint::SMS));
            if delivered_here {
                delivered += 1;
            }
            if leaked_here {
                leaked += 1;
            }
            assert_eq!(
                delivered_here, entry.delivers_to_native,
                "{name}: ground truth: delivery flag mismatch"
            );
            assert_eq!(leaked_here, entry.leaks, "{name}: ground truth: leak flag mismatch");
        }
        // §VI: 8 apps driven manually; 3 deliver contact/SMS data to
        // native code; 1 (ePhone) leaks it.
        assert_eq!(delivered, 3, "three apps deliver contact/SMS data to native code");
        assert_eq!(leaked, 1, "only ePhone leaks");
    }
}
