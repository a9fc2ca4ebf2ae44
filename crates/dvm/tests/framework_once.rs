//! The modeled framework is built once per process: every program —
//! on any thread — borrows the same class and method tables, and the
//! app's own ids continue from the framework's counts.

use ndroid_dvm::framework::install_framework;
use ndroid_dvm::{ClassDef, ClassId, MethodDef, MethodId, MethodKind, Program};

fn with_framework() -> Program {
    let mut p = Program::new();
    install_framework(&mut p);
    p
}

/// The address of the first framework class: equal addresses mean the
/// two programs borrow one table.
fn first_class(p: &Program) -> usize {
    p.class(ClassId(0)) as *const ClassDef as usize
}

#[test]
fn installs_and_threads_share_one_framework() {
    let a = with_framework();
    let b = with_framework();
    let other_thread = std::thread::scope(|s| {
        s.spawn(|| first_class(&with_framework()))
            .join()
            .expect("install on a second thread")
    });
    assert!(
        std::ptr::eq(a.class(ClassId(0)), b.class(ClassId(0))),
        "classes"
    );
    assert!(
        std::ptr::eq(a.method(MethodId(0)), b.method(MethodId(0))),
        "methods"
    );
    assert_eq!(
        first_class(&a),
        other_thread,
        "an install on another thread"
    );
}

#[test]
fn app_ids_continue_after_the_framework() {
    let mut a = with_framework();
    let mut b = with_framework();
    let (classes, methods) = (a.class_count(), a.method_ids().count());
    assert_eq!((classes, methods), (15, 19));
    for p in [&mut a, &mut b] {
        let c = p.add_class(ClassDef {
            name: "Lapp/Main;".into(),
            ..ClassDef::default()
        });
        let m = p.add_method(c, MethodDef::new("main", "V", MethodKind::Bytecode(vec![])));
        assert_eq!((c, m), (ClassId(classes as u32), MethodId(methods as u32)));
        assert_eq!(p.find_method_by_name("Lapp/Main;", "main"), Ok(m));
        assert_eq!(p.method_class(m), c);
        assert_eq!(p.statics.len(), classes + 1);
    }
    assert!(
        !std::ptr::eq(a.class(ClassId(15)), b.class(ClassId(15))),
        "the app's own classes stay per program"
    );
}

#[test]
#[should_panic(expected = "install_framework needs an empty program")]
fn install_on_a_non_empty_program_panics() {
    let mut p = Program::new();
    p.add_class(ClassDef {
        name: "Lapp/Early;".into(),
        ..ClassDef::default()
    });
    install_framework(&mut p);
}

#[test]
#[should_panic(expected = "the shared framework is immutable")]
fn adding_a_method_to_a_framework_class_panics() {
    let mut p = with_framework();
    let string = p.find_class("Ljava/lang/String;").expect("framework class");
    p.add_method(
        string,
        MethodDef::new("trim", "LL", MethodKind::Bytecode(vec![])),
    );
}
