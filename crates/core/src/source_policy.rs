//! `SourcePolicy`: the structure NDroid creates when tainted data
//! crosses from the Java context into a native method (§V-B, Listing 1).
//!
//! ```c
//! typedef struct _SourcePolicy {
//!     int method_address;
//!     int tR0, tR1, tR2, tR3;
//!     int stack_args_num;
//!     int *stack_args_taints;
//!     char *method_shorty;
//!     int access_flag;
//!     void (*handler)(struct _SourcePolicy*, CPUState*);
//! } SourcePolicy;
//! ```
//!
//! "Each native method receiving tainted parameters will have a
//! SourcePolicy and we use a hash map to store the pairs of
//! `<addr, SourcePolicy>`."

use ndroid_arm::IntMap;
use ndroid_dvm::{IndirectRef, ParamKinds, Taint};
use ndroid_emu::runtime::slot_addr;
use ndroid_emu::shadow::ShadowState;
use std::sync::Arc;

/// The taint-initialization record for one native method invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourcePolicy {
    /// Address of the native method's first instruction.
    pub method_address: u32,
    /// Taints of the first four (register) parameters.
    pub t_regs: [Taint; 4],
    /// Number of parameters passed on the stack.
    pub stack_args_num: usize,
    /// Taints of the stack parameters.
    pub stack_args_taints: Vec<Taint>,
    /// The method shorty (e.g. `IILLLLLLLLII` in Fig. 6), shared with
    /// the method's definition.
    pub method_shorty: Arc<str>,
    /// The method's access flags.
    pub access_flag: u32,
    /// Indirect-reference arguments and their taints (recorded so the
    /// object taint map can be primed; keyed by indirect reference per
    /// §V-B).
    pub object_args: Vec<(IndirectRef, Taint)>,
}

impl SourcePolicy {
    /// Builds a policy from the marshalled arguments of a JNI call.
    /// `args` are post-marshalling register values (objects already
    /// indirect refs); `kinds` are the method's argument kinds.
    pub fn from_call(
        method_address: u32,
        shorty: &Arc<str>,
        access_flag: u32,
        args: &[u32],
        taints: &[Taint],
        kinds: ParamKinds<'_>,
    ) -> SourcePolicy {
        let mut t_regs = [Taint::CLEAR; 4];
        for (i, t) in taints.iter().take(4).enumerate() {
            t_regs[i] = *t;
        }
        let stack_args_taints: Vec<Taint> = taints.iter().skip(4).copied().collect();
        let object_args = args
            .iter()
            .zip(taints.iter())
            .enumerate()
            .filter(|(i, (value, _))| kinds.is_ref(*i) && **value != 0)
            .map(|(_, (value, taint))| (IndirectRef(*value), *taint))
            .collect();
        SourcePolicy {
            method_address,
            t_regs,
            stack_args_num: stack_args_taints.len(),
            stack_args_taints,
            method_shorty: Arc::clone(shorty),
            access_flag,
            object_args,
        }
    }

    /// Whether any parameter carries taint (policies are only stored
    /// for methods "receiving tainted parameters").
    pub fn any_tainted(&self) -> bool {
        self.t_regs.iter().any(|t| t.is_tainted())
            || self.stack_args_taints.iter().any(|t| t.is_tainted())
    }

    /// The handler: "completes the taint initialization" right before
    /// the native method executes — shadow registers for R0–R3, the
    /// taint map for stack parameters, and the object taint map for
    /// reference parameters.
    pub fn apply(&self, shadow: &mut ShadowState, stack_args_base: u32) {
        for (i, t) in self.t_regs.iter().enumerate() {
            shadow.regs[i] = *t;
        }
        for (i, t) in self.stack_args_taints.iter().enumerate() {
            shadow.mem.set_range(slot_addr(stack_args_base, i), 4, *t);
        }
        for (r, t) in &self.object_args {
            shadow.taint_object(*r, *t);
        }
    }
}

/// The `<addr, SourcePolicy>` hash map of §V-B.
#[derive(Debug, Default, Clone)]
pub struct SourcePolicyMap {
    map: IntMap<u32, SourcePolicy>,
    /// Number of policies ever installed (statistics).
    pub installed: u64,
}

impl SourcePolicyMap {
    /// An empty map.
    pub fn new() -> SourcePolicyMap {
        SourcePolicyMap::default()
    }

    /// Stores a policy under the method's entry address.
    pub fn insert(&mut self, policy: SourcePolicy) {
        self.installed += 1;
        self.map.insert(policy.method_address, policy);
    }

    /// Looks up the policy for a method entry address.
    pub fn get(&self, method_address: u32) -> Option<&SourcePolicy> {
        self.map.get(&method_address)
    }

    /// Removes a policy (after the invocation completes).
    pub fn remove(&mut self, method_address: u32) -> Option<SourcePolicy> {
        self.map.remove(&method_address)
    }

    /// Number of live policies.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_call_splits_reg_and_stack() {
        let taints = [
            Taint::IMEI,
            Taint::CLEAR,
            Taint::SMS,
            Taint::CLEAR,
            Taint::CONTACTS,
            Taint::CLEAR,
        ];
        let args = [1, 2, 3, 4, 5, 6];
        let kinds = ParamKinds::new("VIIIIII", true);
        let p = SourcePolicy::from_call(0x4a2c_7d88, &"VIIIIII".into(), 0x9, &args, &taints, kinds);
        assert_eq!(p.t_regs, [Taint::IMEI, Taint::CLEAR, Taint::SMS, Taint::CLEAR]);
        assert_eq!(p.stack_args_num, 2);
        assert_eq!(p.stack_args_taints, vec![Taint::CONTACTS, Taint::CLEAR]);
        assert!(p.any_tainted());
        assert!(p.object_args.is_empty());
    }

    #[test]
    fn object_args_recorded_for_l_kinds() {
        let taints = [Taint::CONTACTS, Taint::CLEAR];
        let args = [0xa890_0025, 7];
        let kinds = ParamKinds::new("ZLI", true);
        let p = SourcePolicy::from_call(0x1000_0000, &"ZLI".into(), 0x1, &args, &taints, kinds);
        assert_eq!(p.object_args.len(), 1);
        assert_eq!(p.object_args[0].0, IndirectRef(0xa890_0025));
        assert_eq!(p.object_args[0].1, Taint::CONTACTS);
    }

    #[test]
    fn apply_initializes_shadow_state() {
        let taints = [Taint::IMEI, Taint::CLEAR, Taint::CLEAR, Taint::CLEAR, Taint::SMS];
        let args = [0xa890_0025, 0, 0, 0, 9];
        let kinds = ParamKinds::new("VLIIII", true);
        let p = SourcePolicy::from_call(0x1000_0000, &"VLIIII".into(), 0x9, &args, &taints, kinds);
        let mut sh = ShadowState::new();
        p.apply(&mut sh, 0x4070_0000);
        assert_eq!(sh.regs[0], Taint::IMEI);
        assert_eq!(sh.regs[1], Taint::CLEAR);
        assert_eq!(sh.mem.range_taint(0x4070_0000, 4), Taint::SMS);
        assert_eq!(sh.object_taint(IndirectRef(0xa890_0025)), Taint::IMEI);
    }

    #[test]
    fn clean_policy_reports_untainted() {
        let p = SourcePolicy::from_call(
            0x1000_0000,
            &"VI".into(),
            0x9,
            &[5],
            &[Taint::CLEAR],
            ParamKinds::new("VI", true),
        );
        assert!(!p.any_tainted());
    }

    #[test]
    fn map_keyed_by_method_address() {
        let mut map = SourcePolicyMap::new();
        assert!(map.is_empty());
        let p = SourcePolicy::from_call(
            0x4a2c_7d88,
            &"ZLLL".into(),
            0x1,
            &[1, 2, 3],
            &[Taint::CONTACTS; 3],
            ParamKinds::new("ZLLL", true),
        );
        map.insert(p.clone());
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(0x4a2c_7d88), Some(&p));
        assert!(map.get(0xdead).is_none());
        assert_eq!(map.remove(0x4a2c_7d88), Some(p));
        assert!(map.is_empty());
        assert_eq!(map.installed, 1);
    }
}
