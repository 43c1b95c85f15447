#include "common/io.h"

#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <string>

#include "common/error.h"
#include "common/mutex.h"
#include "common/obs.h"

namespace mandipass::common {

namespace {

// Global write-fault state (test/bench setup is single-threaded; the
// mutex keeps the bookkeeping coherent if a parallel suite arms it
// around a concurrent save).
struct FaultState {
  Mutex mutex;
  bool armed MANDIPASS_GUARDED_BY(mutex) = false;
  IoFaultConfig config MANDIPASS_GUARDED_BY(mutex);
  std::size_t written MANDIPASS_GUARDED_BY(mutex) = 0;  ///< bytes written since arming
  std::uint64_t fired MANDIPASS_GUARDED_BY(mutex) = 0;
};

FaultState& fault_state() {
  static FaultState s;
  return s;
}

/// Raw pass-through write with the usual stream-state check.
void write_raw(std::ostream& os, const char* src, std::size_t size, const char* what) {
  if (size == 0) {
    return;
  }
  // mandilint: allow(unchecked-io) -- this is the checked wrapper itself.
  os.write(src, static_cast<std::streamsize>(size));
  if (!os) {
    throw SerializationError(std::string("failed writing ") + what + " (" +
                             std::to_string(size) + " bytes)");
  }
}

/// The bookkeeping half of a fired fault, captured under the state lock.
struct FiredFault {
  IoFaultConfig::Kind kind;
  std::size_t prefix;  ///< bytes the faulting op still writes
};

/// Consults and updates the armed-fault bookkeeping under the state
/// lock. Returns the fault to act on, or nullopt when the caller should
/// perform a normal write. Splitting bookkeeping (locked) from the
/// stream writes + throw (in the caller, unlocked) keeps the lock scope
/// a pure RAII block — no manual unlock before the throwing writes.
std::optional<FiredFault> consume_write_fault(std::size_t size) {
  FaultState& s = fault_state();
  MutexLock lock(s.mutex);
  if (!s.armed) {
    return std::nullopt;
  }
  if (s.written + size <= s.config.fail_at_byte) {
    s.written += size;
    return std::nullopt;  // still under budget: caller writes normally
  }
  // The fault fires on this op.
  s.fired += 1;
  MANDIPASS_OBS_COUNT("fault.io.injected");
  if (--s.config.failures <= 0) {
    s.armed = false;
  }
  const std::size_t prefix =
      s.config.fail_at_byte > s.written ? s.config.fail_at_byte - s.written : 0;
  s.written += prefix;
  return FiredFault{s.config.kind, prefix};
}

/// Acts on a fired fault: performs the partial stream writes and throws
/// the injected failure. Returns true when the write was fully handled
/// (fault fired and threw); false when the caller should write normally.
bool maybe_inject_write_fault(std::ostream& os, const char* src, std::size_t size,
                              const char* what) {
  const std::optional<FiredFault> fault = consume_write_fault(size);
  if (!fault.has_value()) {
    return false;
  }
  const std::size_t prefix = fault->prefix;

  switch (fault->kind) {
    case IoFaultConfig::Kind::ShortWrite:
      write_raw(os, src, prefix, what);
      throw IoFailure(ErrorCode::IoError,
                      std::string("injected short write of ") + what + " (" +
                          std::to_string(prefix) + "/" + std::to_string(size) + " bytes)");
    case IoFaultConfig::Kind::TornWrite: {
      const std::size_t torn = prefix + (size - prefix) / 2;
      write_raw(os, src, torn, what);
      throw IoFailure(ErrorCode::IoError,
                      std::string("injected torn write of ") + what + " (" +
                          std::to_string(torn) + "/" + std::to_string(size) + " bytes)");
    }
    case IoFaultConfig::Kind::TransientError:
      throw IoFailure(ErrorCode::IoError,
                      std::string("injected transient I/O error writing ") + what);
    case IoFaultConfig::Kind::NoSpace:
      write_raw(os, src, prefix, what);
      throw IoFailure(ErrorCode::NoSpace,
                      std::string("injected ENOSPC writing ") + what + " (" +
                          std::to_string(prefix) + "/" + std::to_string(size) + " bytes)");
  }
  return true;  // unreachable
}

}  // namespace

void arm_io_fault(const IoFaultConfig& config) {
  MANDIPASS_EXPECTS(config.failures > 0);
  FaultState& s = fault_state();
  const MutexLock lock(s.mutex);
  s.armed = true;
  s.config = config;
  s.written = 0;
}

void disarm_io_fault() {
  FaultState& s = fault_state();
  const MutexLock lock(s.mutex);
  s.armed = false;
}

std::uint64_t io_faults_fired() {
  FaultState& s = fault_state();
  const MutexLock lock(s.mutex);
  return s.fired;
}

void read_exact(std::istream& is, void* dst, std::size_t size, const char* what) {
  MANDIPASS_EXPECTS(what != nullptr);
  MANDIPASS_EXPECTS(size == 0 || dst != nullptr);
  MANDIPASS_EXPECTS(size <= static_cast<std::size_t>(std::numeric_limits<std::streamsize>::max()));
  if (size == 0) {
    return;
  }
  // mandilint: allow(unchecked-io) -- this is the checked wrapper itself.
  is.read(static_cast<char*>(dst), static_cast<std::streamsize>(size));
  if (!is || static_cast<std::size_t>(is.gcount()) != size) {
    throw SerializationError(std::string("truncated stream reading ") + what + " (wanted " +
                             std::to_string(size) + " bytes, got " +
                             std::to_string(is.gcount()) + ")");
  }
}

void write_exact(std::ostream& os, const void* src, std::size_t size, const char* what) {
  MANDIPASS_EXPECTS(what != nullptr);
  MANDIPASS_EXPECTS(size == 0 || src != nullptr);
  MANDIPASS_EXPECTS(size <= static_cast<std::size_t>(std::numeric_limits<std::streamsize>::max()));
  if (size == 0) {
    return;
  }
  if (maybe_inject_write_fault(os, static_cast<const char*>(src), size, what)) {
    return;
  }
  write_raw(os, static_cast<const char*>(src), size, what);
}

}  // namespace mandipass::common
