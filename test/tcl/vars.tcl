# vars: scopes, links and cells -- global, upvar, uplevel, unset, info exists
proc try {script} {
  if {[catch {uplevel 1 $script} r]} { puts "error: $r" } else { puts "ok: $r" }
}

# global: reads and writes the global variable, also one made by the link
set g 1
proc bump_g {} { global g; incr g }
bump_g; bump_g
puts "g=$g"
proc make_fresh {} { global fresh; set fresh made }
make_fresh
puts "fresh=$fresh"
proc linked_unset {} { global g; unset g }
linked_unset
puts "g exists: [info exists g]"
set g 10
proc twice {} { global g; global g; set g }
puts "global twice: [twice]"

# upvar 1 and upvar #0, scalars and arrays
proc incr_by {name n} { upvar 1 $name v; incr v $n }
set a 5
incr_by a 3
puts "a=$a"
proc deep {} { upvar #0 g top; set top [expr {$top * 2}] }
proc middle {} { deep }
middle
puts "g=$g"
proc fill {arr} { upvar 1 $arr x; set x(one) 1; set x(two) 2; array size x }
puts "filled [fill table]: [lsort [array names table]] $table(two)"
proc reader {arr key} { upvar $arr x; return $x($key) }
puts "reader: [reader table one]"
proc swap {p q} { upvar 1 $p x $q y; set t $x; set x $y; set y $t }
set left L; set right R
swap left right
puts "$left $right"
proc chain {name} { upvar 1 $name v; chain2 v }
proc chain2 {name} { upvar 1 $name w; set w chained }
chain target
puts "target=$target"
proc relink {} {
  upvar 1 left v; set first $v
  upvar 1 right v; return "$first then $v"
}
puts [relink]
upvar #0 g alias_g
puts "alias at top: $alias_g"

# uplevel reads and writes the caller's variables
proc caller {} { set local 7; callee; return $local }
proc callee {} { uplevel 1 {incr local 10}; uplevel 1 {set seen $local} }
puts "caller: [caller]"
proc get_top {} { uplevel #0 {set g} }
puts "uplevel #0: [get_top]"

# unset and set again inside a loop, info exists along the way
set log {}
for {set i 0} {$i < 3} {incr i} {
  set x $i
  lappend log [info exists x]
  unset x
  lappend log [info exists x]
  if {$i == 2} { set x again }
}
puts "loop: $log x=$x"
proc loop_proc {} {
  set out {}
  foreach k {a b c} {
    if {[info exists v]} { lappend out "had $v" }
    set v $k
    if {$k ne "b"} { unset v }
  }
  lappend out [info exists v]
  return $out
}
puts "loop_proc: [loop_proc]"
set arr(k) 1
unset arr(k)
puts "empty array: [array exists arr] [array size arr] [info exists arr(k)]"
unset arr
puts "arr gone: [info exists arr]"
# array get and array names keep only the keys matching a glob pattern
array set pat {x1 1 x2 2 y1 3}
puts "get x*: [lsort [array get pat x*]]"
puts "names x*: [lsort [array names pat x*]]"
puts "get y?: [array get pat y?] names z*: \"[array names pat z*]\""
unset -nocomplain nothing_here arr
unset -nocomplain
unset
puts "nocomplain ok"
set -dash 1
unset -- -dash
puts "dash gone: [info exists -dash]"

# recursion: each frame has its own cells
proc depth {n} {
  set mine "d$n"
  if {$n > 0} { set below [depth [expr {$n - 1}]] } else { set below {} }
  return "$mine $below"
}
puts "depth: [depth 3]"
proc fib {n} { if {$n < 2} { return $n }; expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]} }
puts "fib: [fib 12]"

# duplicate parameter names: Tcl binds the first
proc dup {a a} { return $a }
puts "dup: [dup first second]"
proc dup3 {a b a} { return "$a $b" }
puts "dup3: [dup3 1 2 3]"

# one body text shared by two procs with different parameter names
set body { set total 0; foreach v $args { incr total $v }; return $total }
proc sum_a {args} $body
proc sum_b {first args} $body
puts "shared body: [sum_a 1 2] [sum_b 10 20 30] [sum_a 4]"
set body2 { if {[info exists p]} { return "p=$p" }; return "q=$q" }
proc with_p {p} $body2
proc with_q {q} $body2
puts "[with_p 1] [with_q 2] [with_p 3] [with_q 4]"

# errors, as Tcl words them
try {set nosuch}
try {unset nosuch}
try {unset table(none)}
try {set a(1)}
try {set a(1) x}
try {unset a(1)}
try {set table(none)}
try {set table}
try {set table 1}
try {set never(1)}
try {unset never(1)}
try {incr a(1)}
try {append table x}
try {proc own {} { set g 1; global g }; own}
try {proc own2 {} { set v 1; upvar 1 a v }; own2}
try {proc param {g} { global g }; param 1}
try {proc late {} { set g 1; unset g; global g; return $g }; late}
