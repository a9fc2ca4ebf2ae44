//! Deterministic end-to-end regression pins for the gallery apps'
//! leak reports under NDroid mode: exact sink, destination, payload
//! bytes (with the tainted byte ranges inside the payload), and taint
//! label, plus a same-report-on-every-run determinism check. Any
//! change to the analysis that alters what these apps leak — or where
//! in the payload the tainted bytes sit — fails here first.

use ndroid_apps::testutil::{run_ndroid as run, GALLERY};
use ndroid_apps::{crypto_hider, qq_phonebook, thumb_spy};
use ndroid_dvm::{SinkCtx, Taint};

#[test]
fn qq_phonebook_report_is_pinned() {
    let sys = run(qq_phonebook::qq_phonebook);
    let leaks = sys.leaks();
    assert_eq!(leaks.len(), 1, "exactly one leak report");
    let l = leaks[0];
    // Fig. 6's flow: contact + SMS text concatenated into the login URL
    // and posted from Java after the native round trip.
    assert_eq!(l.sink, "HttpClient.post");
    assert_eq!(l.dest, "sync.3g.qq.com");
    assert_eq!(l.context, SinkCtx::Java);
    assert_eq!(l.taint, Taint::CONTACTS | Taint::SMS, "0x202 label");
    assert_eq!(
        *l.data,
        *b"http://sync.3g.qq.com/xpimlogin?sid=Vincentsecret meeting at 5pm"
    );
    // Byte ranges inside the payload: [0, 36) URL template, [36, 43)
    // the CONTACTS-derived sid, [43, 64) the SMS body.
    assert_eq!(&l.data[..36], b"http://sync.3g.qq.com/xpimlogin?sid=");
    assert_eq!(&l.data[36..43], b"Vincent");
    assert_eq!(&l.data[43..], b"secret meeting at 5pm");
}

#[test]
fn thumb_spy_report_is_pinned() {
    let sys = run(thumb_spy::thumb_spy);
    let leaks = sys.leaks();
    assert_eq!(leaks.len(), 1, "exactly one leak report");
    let l = leaks[0];
    // Case 2 via a Thumb-mode byte-copy loop: the whole 7-byte payload
    // is the contact string; every wire byte is tainted.
    assert_eq!(l.sink, "send");
    assert_eq!(l.dest, "thumb.evil.com");
    assert_eq!(l.context, SinkCtx::Native);
    assert_eq!(l.taint, Taint::CONTACTS);
    assert_eq!(*l.data, *b"Vincent");
    assert_eq!(sys.report().network_log.len(), 1);
    let (dest, wire, taint) = &sys.report().network_log[0];
    assert_eq!(dest, "thumb.evil.com");
    assert_eq!(**wire, *b"Vincent", "bytes [0, 7) on the wire");
    assert_eq!(*taint, Taint::CONTACTS);
}

#[test]
fn crypto_hider_report_is_pinned() {
    let sys = run(crypto_hider::crypto_hider);
    let leaks = sys.leaks();
    assert_eq!(leaks.len(), 1, "exactly one leak report");
    let l = leaks[0];
    assert_eq!(l.sink, "send");
    assert_eq!(l.dest, "relay.messenger.example");
    assert_eq!(l.context, SinkCtx::Native);
    assert_eq!(l.taint, Taint::CONTACTS, "label survives the XOR cipher");
    let (_, wire, _) = &sys.report().network_log[0];
    // The ciphertext (bytes [0, 9) of the payload) is the XOR-0x5A
    // encryption of the contact record: no plaintext at the sink, yet
    // Table V's EOR rule keeps each output byte tainted.
    assert_eq!(wire.len(), 9);
    assert_ne!(**wire, *b"cx@gg.com", "nothing in the clear");
    let decrypted: Vec<u8> = wire.iter().map(|b| b ^ 0x5A).collect();
    assert_eq!(decrypted, b"cx@gg.com");
}

#[test]
fn gallery_reports_are_deterministic_across_runs() {
    for (name, build) in GALLERY {
        let a = format!("{:?}", run(build).leaks());
        let b = format!("{:?}", run(build).leaks());
        assert_eq!(a, b, "{name}: identical report on every run");
    }
}
