"""Tour of the forcing layer: building and checking forcing sequences.

A forcing sequence for a non-cyclic, non-quaternion p-group refines the
exponent-p central series into index-p steps so that every consecutive
quotient map has a conjugacy class whose full preimage keeps the class
order. The builder returns a certificate; an independent brute-force
verifier re-derives every claim from scratch.

Run as: python3 demos/02_forcing_certificates.py
"""

import dataclasses

from forcing_lab import (
    TWISTED_C4_SPEC,
    QuaternionGroup,
    build_forcing_sequence,
    is_forcing,
    parse_group_spec,
    verify_certificate,
)

print("=" * 64)
print("1. A one-step forcing sequence for the dihedral group of order 8")
print("=" * 64)

G = parse_group_spec("preset:Dihedral(8)")
cert = build_forcing_sequence(G)
print(f"chain orders: {' > '.join(str(len(entry)) for entry in cert.chain)}")
for step in cert.steps:
    w = step.witness
    print(f"step at chain index {step.index_in_chain}: kernel order "
          f"{step.kernel_order}, witness class rep {w.class_rep} of order "
          f"{w.class_order}, fiber sizes {w.checked_fiber_sizes}")

report = verify_certificate(G, cert)
print(f"verifier: {'all passed' if report.all_passed else 'FAILED'} "
      f"({len(report.checks)} conditions)")

print()
print("=" * 64)
print("2. Tampering is caught by name")
print("=" * 64)

# Forge the witness to point at the identity class; only that condition
# and its dependents fail, everything else still passes.
bad_witness = dataclasses.replace(cert.steps[0].witness, class_rep=0)
forged = dataclasses.replace(
    cert, steps=(dataclasses.replace(cert.steps[0], witness=bad_witness),))
report = verify_certificate(G, forged)
for chk in report.failures():
    print(f"FAIL {chk.label()}: {chk.detail}")

print()
print("=" * 64)
print("3. Not every quotient map is forcing")
print("=" * 64)

# In the cyclic group of order 6, the preimages of the generator of C3
# include elements of order 6, so no class works.
C6 = parse_group_spec("preset:Cyclic(6)")
orders = C6.orders()
inv = next(x for x in range(C6.order) if int(orders[x]) == 2)
# is_forcing(G, upper, lower) decides the map G/lower -> G/upper.
print(f"C6 -> C3 forcing witness: "
      f"{is_forcing(C6, C6.subgroup_closure([inv]), C6.trivial_subgroup())}")

Q8 = parse_group_spec("preset:GenQuaternion(1)")
print(f"Q8 -> Klein four forcing witness: "
      f"{is_forcing(Q8, Q8.center(), Q8.trivial_subgroup())}")

print()
print("=" * 64)
print("4. Quaternion quotients are detoured at p = 2")
print("=" * 64)

# This order-16 group has three index-2 refinements of its Frattini
# layer; exactly one of them has a generalized quaternion quotient and
# the builder must pick one of the other two.
G = parse_group_spec(TWISTED_C4_SPEC)
cert = build_forcing_sequence(G)
report = verify_certificate(G, cert)
print(f"chain orders: {' > '.join(str(len(entry)) for entry in cert.chain)}")
quaternion_checks = [c for c in report.checks
                     if c.condition == "quotient-non-quaternion"]
print(f"quotient-non-quaternion checks: "
      f"{sum(c.passed for c in quaternion_checks)}/{len(quaternion_checks)} passed")

print()
print("=" * 64)
print("5. Hypothesis failures are refusals, not bad certificates")
print("=" * 64)

for spec in ("preset:Cyclic(8)", "preset:GenQuaternion(2)"):
    try:
        build_forcing_sequence(parse_group_spec(spec))
    except QuaternionGroup as exc:
        print(f"{spec}: refused, generalized quaternion with n = {exc.index}")
    except Exception as exc:
        print(f"{spec}: refused, {type(exc).__name__}: {exc}")
