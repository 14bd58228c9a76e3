# Integer exponentiation and floored division, as Tcl 8.6 does them: an
# integer to an integer power is an integer, a negative power of an integer
# other than 1 or -1 is 0, and zero to a negative power is an error.
# Division and remainder floor toward negative infinity, and a float
# operand of % or ~ is an error, where int() truncates.  Each expression
# is written once with constants and once with variables, which TScript
# evaluates on unboxed integers.
foreach e {
  {2 ** 10} {2 ** -1} {-1 ** -1} {-1 ** -2} {1 ** -5} {0 ** 0} {0 ** 3}
  {-2 ** 3} {-2**2} {2 ** 3 ** 2} {7 ** 5} {3 ** 0} {-3 ** 3} {10 ** 18}
  {2 + 3 * 4 ** 2} {2.0 ** 3} {2 ** -1.0} {4 ** 0.5}
  {7 / -2} {-7 / 2} {7 / 2} {-7 / -2} {7 % -2} {-7 % 2} {-7 % -2} {7 % 2}
  {0 / -3} {0 % -3} {6 % -3} {-6 / 3}
} {
  puts "$e = [expr $e]"
}
set b 5
set e 3
set m -1
set z 0
puts [expr {$b ** $e}]
puts [expr {$b ** -$e}]
puts [expr {$m ** $e}]
puts [expr {$m ** ($e + 1)}]
puts [expr {$b ** $z}]
puts [expr {$z ** $b}]
puts [expr {($b - 7) ** $e % 11}]
puts [expr {$b ** $e > 100}]
if {$b ** 2 == 25} { puts "condition on a power" }
puts [expr {-$b / 2}]
puts [expr {$b / $m}]
puts [expr {($z - $b) % 3}]
puts [expr {$b % ($z - 3)}]
foreach e {{0 ** -1} {0 ** -1.0} {0.0 ** -2} {$z ** -$e} {$b / $z} {$b % $z}} {
  puts "$e fails: [catch {expr $e}]"
}
set f 1.5
foreach e {
  {1.5 % 2} {5 % 2.0} {1.0 % 0} {5 % 0.0} {1e3 % 7} {~1.5} {~-1.0}
  {$f % 2} {$b % $f} {~$f} {-$f % 2} {1 + (2.5 % 2)} {"1.5" % 2}
} {
  puts "$e fails: [catch {expr $e}]"
}
foreach e {{int(1.5) % 2} {int(-2.5) % 3} {~int($f)} {~2} {int(7.9)} {int(-7.9)}} {
  puts "$e = [expr $e]"
}
