// Invariant-checking macros — the repo's diagnostics layer.
//
// AER_CHECK is always on (also in release builds): the library is a research
// artifact and silent state corruption would invalidate experiment results.
// Failures print the condition, the operand *values* (for the comparison
// forms), any streamed context, and the location, then abort — so a violated
// invariant is caught at the point of damage rather than in a downstream
// figure.
//
//   AER_CHECK(ok) << "machine " << id << " double-booked";
//   AER_CHECK_LT(index, actions.size()) << "while scanning " << name;
//
// AER_DCHECK* mirror the AER_CHECK* family but compile out of release
// builds (NDEBUG, unless AER_FORCE_DCHECKS is defined): use them on hot
// paths where the always-on cost is measurable. Compiled-out forms do not
// evaluate their arguments but still type-check them, so a DCHECK cannot
// bit-rot.
#ifndef AER_COMMON_CHECK_H_
#define AER_COMMON_CHECK_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

namespace aer {

// Last-gasp hook: called with the fully formatted failure message after it
// is printed to stderr and just before the failed AER_CHECK aborts. The
// flight recorder (obs/flight_recorder.h) installs itself here to dump
// recent trace records and metrics next to the crash. The hook must be
// reentrancy-safe (a CHECK failing inside the hook must not recurse) and
// must return; the abort always happens. Pass nullptr to uninstall.
using CheckFailureHook = void (*)(const char* message);

inline std::atomic<CheckFailureHook>& CheckFailureHookSlot() {
  static std::atomic<CheckFailureHook> slot{nullptr};
  return slot;
}

inline void SetCheckFailureHook(CheckFailureHook hook) {
  CheckFailureHookSlot().store(hook, std::memory_order_release);
}

}  // namespace aer

namespace aer::internal {

// Renders one operand of a failed comparison. Anything ostream-printable is
// printed as-is; everything else gets a placeholder so AER_CHECK_EQ works on
// types without operator<< (enums classes, handles) out of the box.
template <typename T>
void PrintCheckOperand(std::ostream& os, const T& v) {
  if constexpr (requires(std::ostream& o, const T& x) { o << x; }) {
    os << v;
  } else if constexpr (requires(const T& x) { static_cast<std::int64_t>(x); }) {
    os << static_cast<std::int64_t>(v);
  } else {
    os << "<unprintable>";
  }
}

inline void PrintCheckOperand(std::ostream& os, std::nullptr_t) {
  os << "nullptr";
}

// Non-empty exactly when the comparison failed; carries the rendered
// "(lhs_value vs. rhs_value)" suffix for the failure message. Truthy on
// *failure* so the macro below reads as `while (failed) fail-stream`.
struct CheckOpResult {
  std::string failure;  // empty on success
  explicit operator bool() const { return !failure.empty(); }
};

// Swallows the stream expression so the ternary in AER_CHECK has a void
// else-arm; `&` binds looser than `<<` but tighter than `?:`.
struct Voidify {
  void operator&(std::ostream&) const {}
};

template <typename A, typename B, typename Op>
CheckOpResult CheckOp(const A& a, const B& b, Op op) {
  if (op(a, b)) [[likely]] {
    return {};
  }
  std::ostringstream os;
  os << " (";
  PrintCheckOperand(os, a);
  os << " vs. ";
  PrintCheckOperand(os, b);
  os << ")";
  return {os.str()};
}

// Accumulates the failure message; the destructor emits it and aborts. Only
// ever constructed on the (cold) failure path.
class CheckFailureStream {
 public:
  CheckFailureStream(const char* macro, const char* expr, const char* file,
                     int line) {
    stream_ << file << ":" << line << ": " << macro << " failed: " << expr;
  }

  CheckFailureStream(const CheckFailureStream&) = delete;
  CheckFailureStream& operator=(const CheckFailureStream&) = delete;

  [[noreturn]] ~CheckFailureStream() {
    const std::string message = stream_.str();
    std::fprintf(stderr, "%s\n", message.c_str());
    std::fflush(stderr);
    if (CheckFailureHook hook =
            CheckFailureHookSlot().load(std::memory_order_acquire)) {
      hook(message.c_str());
    }
    std::abort();
  }

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace aer::internal

// Expression form (ternary + Voidify, the glog idiom): contains no `if`, so
// un-braced use inside an outer `if` cannot trip -Wdangling-else, and the
// whole macro plus streamed message is a single expression statement. The
// failure stream (and everything `<<`-ed onto it) is only evaluated when the
// condition fails; the abort happens in the stream temporary's destructor at
// the end of the full expression, after the message is complete.
#define AER_CHECK(cond)                                                   \
  (cond) ? (void)0                                                        \
         : ::aer::internal::Voidify() &                                   \
               ::aer::internal::CheckFailureStream("AER_CHECK", #cond,    \
                                                   __FILE__, __LINE__)    \
                       .stream()                                          \
                   << " "

// Comparison checks: evaluate each operand exactly once and print both
// values on failure, e.g.
//   rng.h:76: AER_CHECK_GT failed: bound > 0u (0 vs. 0)
// The `while` both scopes the result object and never loops: the body
// aborts. No `else` — see above.
#define AER_CHECK_OP_(macro, op, a, b)                                     \
  while (::aer::internal::CheckOpResult aer_internal_check_result =        \
             ::aer::internal::CheckOp(                                     \
                 (a), (b),                                                 \
                 [](const auto& x, const auto& y) { return x op y; }))     \
  ::aer::internal::CheckFailureStream(#macro, #a " " #op " " #b, __FILE__, \
                                      __LINE__)                            \
          .stream()                                                        \
      << aer_internal_check_result.failure << " "

#define AER_CHECK_EQ(a, b) AER_CHECK_OP_(AER_CHECK_EQ, ==, a, b)
#define AER_CHECK_NE(a, b) AER_CHECK_OP_(AER_CHECK_NE, !=, a, b)
#define AER_CHECK_LE(a, b) AER_CHECK_OP_(AER_CHECK_LE, <=, a, b)
#define AER_CHECK_LT(a, b) AER_CHECK_OP_(AER_CHECK_LT, <, a, b)
#define AER_CHECK_GE(a, b) AER_CHECK_OP_(AER_CHECK_GE, >=, a, b)
#define AER_CHECK_GT(a, b) AER_CHECK_OP_(AER_CHECK_GT, >, a, b)

// Debug-tier checks: on in debug builds, compiled out (arguments unevaluated
// but still type-checked) in release. Define AER_FORCE_DCHECKS to keep them
// on regardless — the sanitizer CI jobs do.
#if !defined(NDEBUG) || defined(AER_FORCE_DCHECKS)
#define AER_DCHECK_IS_ON() 1
#else
#define AER_DCHECK_IS_ON() 0
#endif

#if AER_DCHECK_IS_ON()
#define AER_DCHECK(cond) AER_CHECK(cond)
#define AER_DCHECK_EQ(a, b) AER_CHECK_EQ(a, b)
#define AER_DCHECK_NE(a, b) AER_CHECK_NE(a, b)
#define AER_DCHECK_LE(a, b) AER_CHECK_LE(a, b)
#define AER_DCHECK_LT(a, b) AER_CHECK_LT(a, b)
#define AER_DCHECK_GE(a, b) AER_CHECK_GE(a, b)
#define AER_DCHECK_GT(a, b) AER_CHECK_GT(a, b)
#else
// `while (false)` keeps the operands and any streamed message inside the
// dead statement: nothing runs, everything still compiles.
#define AER_DCHECK(cond) while (false) AER_CHECK(cond)
#define AER_DCHECK_EQ(a, b) while (false) AER_CHECK_EQ(a, b)
#define AER_DCHECK_NE(a, b) while (false) AER_CHECK_NE(a, b)
#define AER_DCHECK_LE(a, b) while (false) AER_CHECK_LE(a, b)
#define AER_DCHECK_LT(a, b) while (false) AER_CHECK_LT(a, b)
#define AER_DCHECK_GE(a, b) while (false) AER_CHECK_GE(a, b)
#define AER_DCHECK_GT(a, b) while (false) AER_CHECK_GT(a, b)
#endif

#endif  // AER_COMMON_CHECK_H_
