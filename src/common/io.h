// Checked binary stream I/O + deterministic write-fault injection.
//
// std::istream::read and std::ostream::write report short transfers only
// through stream state, and every call site in an auth pipeline must check
// that state or risk matching against a zero-filled template read from a
// truncated file. These helpers centralise the check: they either transfer
// exactly `size` bytes or throw mandipass::SerializationError naming the
// field that was being transferred. mandilint (tools/lint/mandilint.py)
// forbids raw .read()/.write() calls on streams anywhere else under src/.
//
// The fault hook (arm_io_fault) lets crash-safety tests exercise short
// writes, torn writes, transient EIO and ENOSPC without root or a fuse
// filesystem: every write_exact consults the hook and injects the armed
// failure once the cumulative written-byte budget is crossed. Injected
// failures throw IoFailure, which carries the taxonomy code so the
// template store's retry loop can distinguish retryable (IoError) from
// persistent (NoSpace) faults. The hook is process-global and intended
// for single-threaded test/bench setup, not production configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/result.h"

namespace mandipass::common {

/// Thrown by write_exact when an armed fault fires (and usable by real
/// I/O wrappers to tag OS-level failures with a taxonomy code).
class IoFailure : public mandipass::Error {
 public:
  IoFailure(ErrorCode code, const std::string& what) : mandipass::Error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Reads exactly `size` bytes from `is` into `dst`.
/// Throws SerializationError("truncated stream reading <what>") on a short
/// read or any stream failure. `size == 0` is a checked no-op.
void read_exact(std::istream& is, void* dst, std::size_t size, const char* what);

/// Writes exactly `size` bytes from `src` to `os`.
/// Throws SerializationError("failed writing <what>") if the stream enters
/// a failed state, or IoFailure when an armed fault fires. `size == 0` is
/// a checked no-op.
void write_exact(std::ostream& os, const void* src, std::size_t size, const char* what);

/// One armed write fault. `fail_at_byte` counts cumulative bytes
/// successfully written through write_exact since arming; the first write
/// that would cross the budget misbehaves according to `kind`:
///
///   ShortWrite      the prefix up to the budget reaches the stream, the
///                   rest is dropped, IoFailure(IoError) is thrown
///   TornWrite       the prefix plus *half* of the remaining bytes reach
///                   the stream (a page-sized tear), then IoFailure(IoError)
///   TransientError  nothing is written, IoFailure(IoError) — an EIO that
///                   goes away: after `failures` ops the hook disarms and
///                   retries succeed
///   NoSpace         the prefix reaches the stream, IoFailure(NoSpace) —
///                   ENOSPC-class, reported non-retryable
///
/// Every kind decrements `failures` when it fires and disarms at zero.
struct IoFaultConfig {
  enum class Kind : std::uint8_t { ShortWrite, TornWrite, TransientError, NoSpace };
  Kind kind = Kind::TransientError;
  std::size_t fail_at_byte = 0;  ///< written-byte budget before the fault fires
  int failures = 1;              ///< ops that fail before the hook disarms
};

/// Arms the global write-fault hook and zeroes the written-byte counter.
void arm_io_fault(const IoFaultConfig& config);

/// Disarms the hook (idempotent).
void disarm_io_fault();

/// Total injected failures since process start (also mirrored in the
/// "fault.io.injected" obs counter).
std::uint64_t io_faults_fired();

}  // namespace mandipass::common
