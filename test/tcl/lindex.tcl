# lindex: plain, end-relative, out of range, nested and quoted elements
set l {a {b c} "d e" {f {g h}} i}
puts [lindex $l 0]
puts [lindex $l 1]
puts [lindex $l 2]
puts [lindex $l 3]
puts [lindex $l end]
puts [lindex $l end-1]
puts "<[lindex $l 9]>"
puts "<[lindex $l -1]>"
puts [lindex [lindex $l 3] 1]
puts [llength $l]
puts [llength "  a   b\tc\nd  "]
puts [lindex "a\\ b c" 0]
puts [lindex {x {} y} 1][lindex {x {} y} 2]
puts [lrange $l 1 2]
