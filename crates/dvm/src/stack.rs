//! TaintDroid's modified interpreter stack (Fig. 1 of the paper).
//!
//! "TaintDroid modifies DVM's stack structure to increase stack size
//! for storing taint labels related to registers. For method
//! invocation, TaintDroid first stores the taint labels interleaved
//! with the parameters … Then it allocates stack slots for callee's
//! local variables and lets the frame pointer point to the new method's
//! first local variable. After that, TaintDroid allocates a
//! StackSaveArea on the top of the stack for saving the caller's
//! information." (§II-B)
//!
//! Frame layout in raw slots, at frame pointer `fp`:
//!
//! ```text
//! fp + 0:  v0        fp + 1:  v0 taint tag
//! fp + 2:  v1        fp + 3:  v1 taint tag
//! …
//! fp + 2n:   StackSaveArea.prev_fp
//! fp + 2n+1: StackSaveArea.method_id
//! fp + 2n+2: StackSaveArea.registers_size
//! fp + 2n+3: StackSaveArea.magic (canary)
//! ```

use crate::class::MethodId;
use crate::error::DvmError;
use crate::taint::Taint;

/// Guest-visible base address of the interpreted stack (frame addresses
/// in the paper's logs look like `0x44bf8bf0`).
pub const STACK_BASE: u32 = 0x44bf_0000;

/// Canary placed in each `StackSaveArea` to catch frame corruption.
const SAVE_AREA_MAGIC: u32 = 0x5AFE_CAFE;

/// Words occupied by a `StackSaveArea`.
const SAVE_AREA_SLOTS: usize = 4;

/// The TaintDroid-modified interpreter stack.
#[derive(Debug, Default, Clone)]
pub struct DvmStack {
    slots: Vec<u32>,
    fp: usize,
    depth: usize,
}

impl DvmStack {
    /// An empty stack.
    pub fn new() -> DvmStack {
        DvmStack {
            slots: Vec::with_capacity(1024),
            fp: 0,
            depth: 0,
        }
    }

    /// Current call depth (number of frames).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes a frame for `method` with `registers_size` registers and
    /// the last `args.len()` registers initialized from `args`
    /// (value, taint) — Dalvik's calling convention.
    ///
    /// # Errors
    ///
    /// [`DvmError::ArityMismatch`] if more args than registers.
    pub fn push_frame(
        &mut self,
        method: MethodId,
        registers_size: u16,
        args: &[(u32, Taint)],
    ) -> Result<(), DvmError> {
        if args.len() > registers_size as usize {
            return Err(DvmError::ArityMismatch {
                expected: registers_size,
                got: args.len() as u16,
            });
        }
        let prev_fp = self.fp;
        let new_fp = self.slots.len();
        let n = registers_size as usize;
        // Interleaved value/taint slots, zero/clear initialized.
        self.slots.resize(new_fp + 2 * n + SAVE_AREA_SLOTS, 0);
        // Arguments land in the last `ins` registers.
        let first_in = n - args.len();
        for (i, (value, taint)) in args.iter().enumerate() {
            let reg = first_in + i;
            self.slots[new_fp + 2 * reg] = *value;
            self.slots[new_fp + 2 * reg + 1] = taint.0;
        }
        // StackSaveArea.
        let ssa = new_fp + 2 * n;
        self.slots[ssa] = prev_fp as u32;
        self.slots[ssa + 1] = method.0;
        self.slots[ssa + 2] = registers_size as u32;
        self.slots[ssa + 3] = SAVE_AREA_MAGIC;
        self.fp = new_fp;
        self.depth += 1;
        Ok(())
    }

    /// Pops the current frame, restoring the caller's frame pointer.
    ///
    /// # Panics
    ///
    /// Panics on an empty stack or a corrupted save area (both are
    /// interpreter bugs, not guest-visible conditions).
    pub fn pop_frame(&mut self) {
        assert!(self.depth > 0, "pop on empty stack");
        let n = self.registers_size();
        let ssa = self.fp + 2 * n;
        assert_eq!(self.slots[ssa + 3], SAVE_AREA_MAGIC, "corrupted save area");
        let prev_fp = self.slots[ssa] as usize;
        self.slots.truncate(self.fp);
        self.fp = prev_fp;
        self.depth -= 1;
    }

    /// `registers_size` of the current frame.
    pub fn registers_size(&self) -> usize {
        // Scan forward: the save area is right after the registers. We
        // cached it in the save area itself; recover it from the end of
        // the slot vector (the current frame is always topmost).
        let total = self.slots.len() - self.fp;
        (total - SAVE_AREA_SLOTS) / 2
    }

    /// The method executing in the current frame.
    pub fn current_method(&self) -> MethodId {
        let ssa = self.fp + 2 * self.registers_size();
        MethodId(self.slots[ssa + 1])
    }

    fn check_reg(&self, reg: u16) -> Result<usize, DvmError> {
        if (reg as usize) < self.registers_size() {
            Ok(self.fp + 2 * reg as usize)
        } else {
            Err(DvmError::BadRegister(reg))
        }
    }

    /// Reads register `vreg`.
    ///
    /// # Errors
    ///
    /// [`DvmError::BadRegister`] if out of the frame's range.
    pub fn reg(&self, reg: u16) -> Result<u32, DvmError> {
        Ok(self.slots[self.check_reg(reg)?])
    }

    /// Writes register `vreg`.
    ///
    /// # Errors
    ///
    /// [`DvmError::BadRegister`] if out of the frame's range.
    pub fn set_reg(&mut self, reg: u16, value: u32) -> Result<(), DvmError> {
        let i = self.check_reg(reg)?;
        self.slots[i] = value;
        Ok(())
    }

    /// Reads register `vreg`'s taint tag (the slot interleaved after it).
    ///
    /// # Errors
    ///
    /// [`DvmError::BadRegister`] if out of the frame's range.
    pub fn taint(&self, reg: u16) -> Result<Taint, DvmError> {
        Ok(Taint(self.slots[self.check_reg(reg)? + 1]))
    }

    /// Sets value and taint together.
    ///
    /// # Errors
    ///
    /// [`DvmError::BadRegister`] if out of the frame's range.
    pub fn set(&mut self, reg: u16, value: u32, taint: Taint) -> Result<(), DvmError> {
        let i = self.check_reg(reg)?;
        self.slots[i] = value;
        self.slots[i + 1] = taint.0;
        Ok(())
    }

    /// Guest-visible address of the current frame (for logs like
    /// `curFrame@0x44bf8bf0`).
    pub fn frame_guest_addr(&self) -> u32 {
        STACK_BASE + 4 * self.fp as u32
    }

    /// Guest-visible address of register `vreg`'s **taint slot** (the
    /// paper's "method frame slot at address 0x44bf8c14", Fig. 9).
    pub fn taint_slot_guest_addr(&self, reg: u16) -> u32 {
        STACK_BASE + 4 * (self.fp as u32 + 2 * reg as u32 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_places_args_in_last_registers() {
        let mut s = DvmStack::new();
        s.push_frame(
            MethodId(0),
            5,
            &[(0xAA, Taint::IMEI), (0xBB, Taint::CLEAR)],
        )
        .unwrap();
        // registers_size 5, ins 2 → args in v3, v4.
        assert_eq!(s.reg(3).unwrap(), 0xAA);
        assert_eq!(s.taint(3).unwrap(), Taint::IMEI);
        assert_eq!(s.reg(4).unwrap(), 0xBB);
        assert_eq!(s.taint(4).unwrap(), Taint::CLEAR);
        assert_eq!(s.reg(0).unwrap(), 0);
        assert_eq!(s.registers_size(), 5);
        assert_eq!(s.current_method(), MethodId(0));
    }

    #[test]
    fn taints_are_interleaved_with_values() {
        let mut s = DvmStack::new();
        s.push_frame(MethodId(7), 2, &[]).unwrap();
        s.set(0, 123, Taint::SMS).unwrap();
        s.set(1, 456, Taint::CONTACTS).unwrap();
        // Raw layout check: [v0, t0, v1, t1, ssa...]
        assert_eq!(s.slots[0], 123);
        assert_eq!(s.slots[1], Taint::SMS.0);
        assert_eq!(s.slots[2], 456);
        assert_eq!(s.slots[3], Taint::CONTACTS.0);
    }

    #[test]
    fn nested_frames_restore_on_pop() {
        let mut s = DvmStack::new();
        s.push_frame(MethodId(1), 2, &[(1, Taint::CLEAR)]).unwrap();
        s.set(0, 42, Taint::IMEI).unwrap();
        s.push_frame(MethodId(2), 3, &[(9, Taint::SMS)]).unwrap();
        assert_eq!(s.depth(), 2);
        assert_eq!(s.current_method(), MethodId(2));
        assert_eq!(s.reg(2).unwrap(), 9);
        s.pop_frame();
        assert_eq!(s.depth(), 1);
        assert_eq!(s.current_method(), MethodId(1));
        assert_eq!(s.reg(0).unwrap(), 42);
        assert_eq!(s.taint(0).unwrap(), Taint::IMEI);
    }

    #[test]
    fn register_bounds_enforced() {
        let mut s = DvmStack::new();
        s.push_frame(MethodId(0), 2, &[]).unwrap();
        assert!(s.reg(1).is_ok());
        assert_eq!(s.reg(2).unwrap_err(), DvmError::BadRegister(2));
        assert!(s.set_reg(5, 0).is_err());
        assert!(s.taint(2).is_err());
    }

    #[test]
    fn arity_checked() {
        let mut s = DvmStack::new();
        let err = s
            .push_frame(MethodId(0), 1, &[(0, Taint::CLEAR), (1, Taint::CLEAR)])
            .unwrap_err();
        assert!(matches!(err, DvmError::ArityMismatch { .. }));
    }

    #[test]
    fn guest_addresses_are_in_stack_range() {
        let mut s = DvmStack::new();
        s.push_frame(MethodId(0), 3, &[]).unwrap();
        let fa = s.frame_guest_addr();
        assert_eq!(fa, STACK_BASE);
        let ta = s.taint_slot_guest_addr(1);
        assert_eq!(ta, STACK_BASE + 4 * 3);
        s.push_frame(MethodId(1), 2, &[]).unwrap();
        assert!(s.frame_guest_addr() > fa);
    }
}
