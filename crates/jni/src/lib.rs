#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ndroid-jni
//!
//! The JNI environment of the NDroid reproduction: every JNI function
//! the paper's DVM hook engine instruments (Tables II, III and IV plus
//! the string/array helpers and exceptions), implemented as host
//! functions at deterministic `libdvm.so` trap addresses.
//!
//! Five function groups, matching §V-B:
//!
//! 1. **JNI entry** — `dvmCallJNIMethod` (the bridge itself lives in
//!    [`ndroid_emu::runtime::run_native_method`]; its trap address is
//!    exported here so multilevel hooks can reference it).
//! 2. **JNI exit** — the `Call<Type>Method{,V,A}` ×
//!    {virtual, nonvirtual, static} family (Table II), whose chain
//!    `Call*Method → dvmCallMethod{,V,A} → dvmInterpret` is the one the
//!    multilevel-hooking FSM of Fig. 5 watches.
//! 3. **Object creation** — `NewString`, `NewStringUTF`, `NewObject*`,
//!    `New<Prim>Array` and their `dvmAlloc*`/`dvmCreateStringFrom*`
//!    memory-allocation counterparts (Table III).
//! 4. **Field access** — `Get/Set[Static]<Type>Field` (Table IV).
//! 5. **Exception** — `ThrowNew` → `initException` → `dvmCallMethod`.
//!
//! Table III lives in one place: each function's row in [`registry`]
//! names its hook chain (a `Call*` row's follows from its argument
//! form). The analysis reads the chains through [`hook_table`], and a body
//! runs inside its own through [`registry::in_chain`], which emits the
//! virtual branch events in and out.
//!
//! Convention note (documented substitution): guests call the trap
//! address directly and the implicit `JNIEnv*` first parameter is
//! omitted, so R0 holds the first real argument. Nothing in the
//! paper's mechanisms depends on the env pointer itself.

pub mod arrays;
pub mod calls;
pub mod helpers;
pub mod objects;
pub mod registry;
pub mod strings;

pub use registry::{
    dvm_addr, hook_table, install_jni, jni_names, Hook, HookTable, DVM_INTERNAL_NAMES,
};
