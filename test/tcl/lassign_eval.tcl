# lassign with lists shorter and longer than its variables, and eval
# joining its arguments into one script
proc try {script} {
  if {[catch {uplevel 1 $script} r]} { puts "error: $r" } else { puts "ok: $r" }
}

# lassign: the unassigned rest is its result; missing elements are empty
try {lassign {1 2 3} a b}
puts "a=$a b=$b"
try {lassign {x} a b c}
puts "a=$a b=[list $b] c=[list $c]"
try {lassign {} a}
puts "a=[list $a]"
try {lassign {p {q r} {s t} u} a b}
puts "a=$a b=$b"
try {lassign {1 2} a a}
puts "a=$a"
try {lassign {1 2}}
try {lassign}
try {lassign "a \{" x}
set r {}
foreach row {{1,2,3} {4,5} {6,7,8,9}} {
  set extra [lassign [split $row ,] p q]
  lappend r $p+$q/$extra
}
puts $r

# eval: the arguments are joined with spaces, then run as one script
try {eval set v 7}
try {eval {set v 8; incr v}}
try {eval {set w [expr {$v * 2}]} {;} {incr w}}
try {eval [list set s {a b}]; llength $s}
try {eval set s {a b}}
try {eval {}}
try {eval}
try {eval {error boom}}
proc in_proc {} { set local 1; eval {incr local}; return $local }
try {in_proc}
try {eval "set n 1\nincr n 2\nincr n 3"}
