# foreach: one list, several variables, several lists, break and continue
set r {}
foreach x {1 2 3} { append r $x, }
puts $r
set r {}
foreach {a b} {1 2 3 4 5} { append r "$a/$b," }
puts $r
set r {}
foreach a {1 2} b {x y z} { append r $a$b, }
puts $r
set r {}
foreach {a b} {1 2 3} c {x} { append r "$a.$b.$c," }
puts $r
set r {}
foreach x {1 2 3 4 5} {
  if {$x == 2} continue
  if {$x == 4} break
  append r $x
}
puts $r
set n 0
foreach x {} { incr n }
puts $n
puts [lmap a {1 2 3} b {x y} { set _ $a$b }]
