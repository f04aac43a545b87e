"""The Mela sequence m_1 = 1, m_i = 2*m_{i-1} + 1, and its finite checks.

m_i = 2^i - 1 in closed form, so m_n is exactly the order of G(n). Sums and
ordered differences of two Mela numbers are never Mela (parity), products
are never Mela once the trivial factor m_1 = 1 is excluded, and m_i divides
m_{ki} with a quotient that is never Mela.
"""

from setgraphs import check_closure, check_divisibility, is_mela, mela, vertex_count

values = mela(10)
print("first ten Mela numbers:", values)
print("orders of G(1..10):    ", [vertex_count(n) for n in range(1, 11)])

print("\nspot checks:")
for expr, value in (("m_2 + m_3", 3 + 7), ("m_2 * m_3", 3 * 7), ("m_3 - m_2", 7 - 3)):
    print(f"  {expr} = {value}, Mela? {is_mela(value)}")
print(f"  m_4 / m_2 = {values[3] // values[1]}, Mela? {is_mela(values[3] // values[1])}")

print("\nclosure check to index 20:")
closure = check_closure(20)
print(f"  {closure.status}")
for note in closure.notes:
    print(f"  - {note}")

print("\ndivisibility check to index 20:")
divis = check_divisibility(20)
print(f"  {divis.status}")
for note in divis.notes:
    print(f"  - {note}")
