# if/elseif/else, the optional then, and nesting
proc classify {x} {
  if {$x < 0} {
    return negative
  } elseif {$x == 0} then {
    return zero
  } elseif {$x < 10} {
    return small
  } else {
    return large
  }
}
foreach v {-5 0 3 42} { puts "$v [classify $v]" }
set x 7
if {$x > 5} then { puts big } else { puts little }
if {$x % 2} { if {$x > 6} { puts odd-over-six } }
if 0 { puts never }
puts "<[if 0 { set y 1 }]>"
set body {puts from-variable}
if 1 $body
