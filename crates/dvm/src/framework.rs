//! Modeled Android-framework methods: taint sources, Java-context
//! sinks, and small helpers.
//!
//! TaintDroid "adds taints to the sources of sensitive information (GPS
//! data, SMS messages, IMSI, IMEI, etc.) of an Android device" (§II-B)
//! and checks whether taints reach selected sinks; the network methods
//! are sinks (§VI-D). The device values below match the Android
//! emulator defaults that appear in the paper's logs (Fig. 9 shows
//! `Line1Number = 15555215554`, `NetworkOperator = 310260`).

use crate::class::{ClassDef, MethodDef, MethodKind, Program, Tables};
use crate::taint::Taint;
use std::sync::OnceLock;

/// Identifiers of modeled framework methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `TelephonyManager.getDeviceId()` → IMEI-tainted string.
    GetDeviceId,
    /// `TelephonyManager.getSubscriberId()` → IMSI-tainted string.
    GetSubscriberId,
    /// `TelephonyManager.getLine1Number()` → phone-number-tainted string.
    GetLine1Number,
    /// `TelephonyManager.getSimSerialNumber()` → ICCID-tainted string.
    GetSimSerialNumber,
    /// `TelephonyManager.getNetworkOperator()` → IMSI-tainted string.
    GetNetworkOperator,
    /// `ContactsProvider.queryId()` → contacts-tainted string.
    QueryContactId,
    /// `ContactsProvider.queryName()` → contacts-tainted string.
    QueryContactName,
    /// `ContactsProvider.queryEmail()` → contacts-tainted string.
    QueryContactEmail,
    /// `SmsProvider.queryLastMessage()` → SMS-tainted string.
    QueryLastSms,
    /// `LocationManager.getLastKnownLocation()` → location-tainted string.
    GetLastKnownLocation,
    /// `AccountManager.getAccountName()` → account-tainted string.
    GetAccountName,
    /// `Socket.send(dest, data)` — **sink**: leaks if `data` is tainted.
    NetworkSend,
    /// `SmsManager.sendTextMessage(number, text)` — **sink**.
    SmsSend,
    /// `HttpClient.post(url)` — **sink**: the URL itself is the data
    /// (QQPhoneBook exfiltrates through URL parameters, Fig. 6).
    HttpPost,
    /// `Log.d(tag, msg)` — *not* a sink; used by benign apps.
    LogDebug,
    /// `String.concat(a, b)` → taint(a) ∪ taint(b).
    StringConcat,
    /// `String.length(s)` → int with taint(s).
    StringLength,
    /// `String.valueOf(i)` → string with the register's taint.
    StringValueOf,
    /// `Throwable.getMessage(ex)` → the exception's message string.
    ThrowableGetMessage,
}

impl Intrinsic {
    /// Whether the intrinsic is a Java-context sink TaintDroid monitors.
    pub fn is_sink(self) -> bool {
        matches!(
            self,
            Intrinsic::NetworkSend | Intrinsic::SmsSend | Intrinsic::HttpPost
        )
    }

    /// Whether the intrinsic is a taint source.
    pub fn source_taint(self) -> Option<Taint> {
        match self {
            Intrinsic::GetDeviceId => Some(Taint::IMEI),
            Intrinsic::GetSubscriberId | Intrinsic::GetNetworkOperator => Some(Taint::IMSI),
            Intrinsic::GetLine1Number => Some(Taint::PHONE_NUMBER),
            Intrinsic::GetSimSerialNumber => Some(Taint::ICCID),
            Intrinsic::QueryContactId
            | Intrinsic::QueryContactName
            | Intrinsic::QueryContactEmail => Some(Taint::CONTACTS),
            Intrinsic::QueryLastSms => Some(Taint::SMS),
            Intrinsic::GetLastKnownLocation => Some(Taint::LOCATION_LAST),
            Intrinsic::GetAccountName => Some(Taint::ACCOUNT),
            _ => None,
        }
    }
}

/// The simulated device identity returned by the framework sources.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// IMEI.
    pub device_id: String,
    /// IMSI.
    pub subscriber_id: String,
    /// Phone number (the emulator's `15555215554`, as in Fig. 9).
    pub line1_number: String,
    /// SIM serial (ICCID).
    pub sim_serial: String,
    /// Mobile network operator (the emulator's `310260`, as in Fig. 9).
    pub network_operator: String,
    /// Contact record: (id, name, email) — PoC case 2's
    /// `("1", "Vincent", "cx@gg.com")` (Fig. 8).
    pub contact: (String, String, String),
    /// Last received SMS body.
    pub last_sms: String,
    /// Last known location.
    pub location: String,
    /// Account name.
    pub account: String,
}

impl Default for DeviceProfile {
    fn default() -> DeviceProfile {
        DeviceProfile {
            device_id: "000000000000000".into(),
            subscriber_id: "310260000000000".into(),
            line1_number: "15555215554".into(),
            sim_serial: "89014103211118510720".into(),
            network_operator: "310260".into(),
            contact: ("1".into(), "Vincent".into(), "cx@gg.com".into()),
            last_sms: "secret meeting at 5pm".into(),
            location: "22.3364,114.2655".into(),
            account: "user@example.com".into(),
        }
    }
}

/// Installs the modeled framework classes into `program`.
///
/// Like Zygote's preloaded classes, the framework's class table, method
/// table and name index are built once per process and shared: this
/// points `program` at them, and the app's own classes and methods get
/// the ids that follow. Apps reference the methods by class/name, e.g.
/// `program.find_method_by_name("Landroid/telephony/TelephonyManager;",
/// "getDeviceId")`. A framework class takes no further methods.
///
/// # Panics
///
/// Panics if `program` already holds a class.
pub fn install_framework(program: &mut Program) {
    static FRAMEWORK: OnceLock<Tables> = OnceLock::new();
    program.share(FRAMEWORK.get_or_init(|| {
        let mut own = Program::new();
        build(&mut own);
        own.into_tables()
    }));
}

/// Adds the framework classes and methods to `program` as its own.
fn build(program: &mut Program) {
    let intrinsic = |name: &str, shorty: &str, which: Intrinsic| MethodDef {
        name: name.into(),
        shorty: shorty.into(),
        registers_size: shorty.len() as u16 - 1,
        ins_size: shorty.len() as u16 - 1,
        is_static: true,
        kind: MethodKind::Intrinsic(which),
        catch_all: None,
    };

    let telephony = program.add_class(ClassDef {
        name: "Landroid/telephony/TelephonyManager;".into(),
        ..ClassDef::default()
    });
    program.add_method(telephony, intrinsic("getDeviceId", "L", Intrinsic::GetDeviceId));
    program.add_method(
        telephony,
        intrinsic("getSubscriberId", "L", Intrinsic::GetSubscriberId),
    );
    program.add_method(
        telephony,
        intrinsic("getLine1Number", "L", Intrinsic::GetLine1Number),
    );
    program.add_method(
        telephony,
        intrinsic("getSimSerialNumber", "L", Intrinsic::GetSimSerialNumber),
    );
    program.add_method(
        telephony,
        intrinsic("getNetworkOperator", "L", Intrinsic::GetNetworkOperator),
    );

    let contacts = program.add_class(ClassDef {
        name: "Landroid/provider/ContactsProvider;".into(),
        ..ClassDef::default()
    });
    program.add_method(contacts, intrinsic("queryId", "L", Intrinsic::QueryContactId));
    program.add_method(
        contacts,
        intrinsic("queryName", "L", Intrinsic::QueryContactName),
    );
    program.add_method(
        contacts,
        intrinsic("queryEmail", "L", Intrinsic::QueryContactEmail),
    );

    let sms = program.add_class(ClassDef {
        name: "Landroid/provider/SmsProvider;".into(),
        ..ClassDef::default()
    });
    program.add_method(sms, intrinsic("queryLastMessage", "L", Intrinsic::QueryLastSms));

    let location = program.add_class(ClassDef {
        name: "Landroid/location/LocationManager;".into(),
        ..ClassDef::default()
    });
    program.add_method(
        location,
        intrinsic(
            "getLastKnownLocation",
            "L",
            Intrinsic::GetLastKnownLocation,
        ),
    );

    let accounts = program.add_class(ClassDef {
        name: "Landroid/accounts/AccountManager;".into(),
        ..ClassDef::default()
    });
    program.add_method(
        accounts,
        intrinsic("getAccountName", "L", Intrinsic::GetAccountName),
    );

    let socket = program.add_class(ClassDef {
        name: "Ljava/net/Socket;".into(),
        ..ClassDef::default()
    });
    program.add_method(socket, intrinsic("send", "VLL", Intrinsic::NetworkSend));

    let sms_mgr = program.add_class(ClassDef {
        name: "Landroid/telephony/SmsManager;".into(),
        ..ClassDef::default()
    });
    program.add_method(
        sms_mgr,
        intrinsic("sendTextMessage", "VLL", Intrinsic::SmsSend),
    );

    let http = program.add_class(ClassDef {
        name: "Lorg/apache/http/HttpClient;".into(),
        ..ClassDef::default()
    });
    program.add_method(http, intrinsic("post", "VL", Intrinsic::HttpPost));

    let log = program.add_class(ClassDef {
        name: "Landroid/util/Log;".into(),
        ..ClassDef::default()
    });
    program.add_method(log, intrinsic("d", "VLL", Intrinsic::LogDebug));

    let string = program.add_class(ClassDef {
        name: "Ljava/lang/String;".into(),
        ..ClassDef::default()
    });
    program.add_method(string, intrinsic("concat", "LLL", Intrinsic::StringConcat));
    program.add_method(string, intrinsic("length", "IL", Intrinsic::StringLength));
    program.add_method(string, intrinsic("valueOf", "LI", Intrinsic::StringValueOf));

    let throwable = program.add_class(ClassDef {
        name: "Ljava/lang/Throwable;".into(),
        ..ClassDef::default()
    });
    program.add_method(
        throwable,
        intrinsic("getMessage", "LL", Intrinsic::ThrowableGetMessage),
    );

    // Exception classes native code may ThrowNew (resolved by
    // FindClass; they carry no methods of their own — getMessage lives
    // on Throwable).
    for exc in [
        "Ljava/lang/RuntimeException;",
        "Ljava/lang/IllegalArgumentException;",
        "Ljava/lang/IllegalStateException;",
        "Ljava/io/IOException;",
    ] {
        program.add_class(ClassDef {
            name: exc.into(),
            ..ClassDef::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassId;

    #[test]
    fn framework_installs_all_classes() {
        let mut p = Program::new();
        install_framework(&mut p);
        for class in [
            "Landroid/telephony/TelephonyManager;",
            "Landroid/provider/ContactsProvider;",
            "Landroid/provider/SmsProvider;",
            "Landroid/location/LocationManager;",
            "Ljava/net/Socket;",
            "Landroid/telephony/SmsManager;",
            "Lorg/apache/http/HttpClient;",
            "Landroid/util/Log;",
            "Ljava/lang/String;",
            "Landroid/accounts/AccountManager;",
            "Ljava/lang/Throwable;",
            "Ljava/lang/RuntimeException;",
            "Ljava/lang/IllegalArgumentException;",
            "Ljava/lang/IllegalStateException;",
            "Ljava/io/IOException;",
        ] {
            assert!(p.find_class(class).is_ok(), "missing {class}");
        }
        assert_eq!(p.class_count(), 15, "no class beyond the listed ones");
        assert_eq!(p.method_ids().count(), 19);
        assert!(p
            .find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId")
            .is_ok());
        assert!(p.find_method_by_name("Ljava/net/Socket;", "send").is_ok());
    }

    /// The shared tables are the from-scratch build, id by id.
    #[test]
    fn shared_framework_equals_a_private_build() {
        let mut shared = Program::new();
        install_framework(&mut shared);
        let mut private = Program::new();
        build(&mut private);
        assert_eq!(shared.class_count(), private.class_count());
        for c in (0..private.class_count() as u32).map(ClassId) {
            let (s, p) = (shared.class(c), private.class(c));
            assert_eq!(s.name, p.name, "class {}", c.0);
            assert_eq!(s.methods, p.methods, "methods of {}", p.name);
            assert_eq!(shared.statics[c.0 as usize], private.statics[c.0 as usize]);
        }
        assert!(shared.method_ids().eq(private.method_ids()));
        let describe = |program: &Program, m| {
            let d = program.method(m);
            let owner = program.method_class(m);
            format!("{owner:?} {} {} {d:?}", d.name, d.shorty)
        };
        for m in private.method_ids() {
            assert_eq!(describe(&shared, m), describe(&private, m));
        }
    }

    #[test]
    fn sources_and_sinks_classified() {
        assert_eq!(Intrinsic::GetDeviceId.source_taint(), Some(Taint::IMEI));
        assert_eq!(
            Intrinsic::QueryLastSms.source_taint(),
            Some(Taint::SMS)
        );
        assert!(Intrinsic::NetworkSend.is_sink());
        assert!(Intrinsic::HttpPost.is_sink());
        assert!(!Intrinsic::LogDebug.is_sink());
        assert!(Intrinsic::LogDebug.source_taint().is_none());
        assert!(Intrinsic::StringConcat.source_taint().is_none());
    }

    #[test]
    fn device_profile_matches_paper_values() {
        let d = DeviceProfile::default();
        assert_eq!(d.line1_number, "15555215554");
        assert_eq!(d.network_operator, "310260");
        assert_eq!(d.contact.1, "Vincent");
        assert_eq!(d.contact.2, "cx@gg.com");
    }
}
