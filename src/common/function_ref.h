// Non-owning callable reference.
//
// FunctionRef<R(Args...)> is a two-word (object pointer + trampoline) view of
// any callable. Unlike std::function it never allocates and never copies the
// target, which makes it suitable for per-event / per-pair hot loops such as
// itree::SweepMatchingPairs and trace::LogReader::StreamRange where a capturing
// lambda is invoked millions of times: the callee receives the caller's
// lambda by reference at zero setup cost.
//
// Lifetime rule: a FunctionRef must not outlive the callable it was built
// from. It is safe as a function PARAMETER (the temporary lambda lives for
// the full call) and unsafe as a stored member.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace sword {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        fn_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return fn_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*fn_)(void*, Args...);
};

}  // namespace sword
