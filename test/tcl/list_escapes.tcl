# backslash sequences the list reader and the script parser decode as Tcl
# 8.6 does: hex (at most two digits), octal (a third digit only below
# 256), form feed and vertical tab; \f and \v also separate list elements
puts [lindex {a\x41b c} 0]
puts [lindex {a\101b c} 0]
puts [lindex {a\x4 c} 0]
puts [lindex {a\xg c} 0]
puts [lindex {\x414 c} 0]
puts [lindex {\1012 c} 0]
puts [string length [lindex {\400 c} 0]]
puts [llength "a\fb"]
puts [llength "a\vb\fc"]
puts [llength {a\fb}]
puts [lindex "a\vb" 1]
puts [lindex {"a b"} 0]
puts "<\x41\x4a\102\x7a>"
puts [string length "\v\f"]
puts [string length "\x414"]
puts [string length "\400"]
# writing: braces hold a vertical tab or form feed; escapes write \v, \f
puts [list "a\vb"]
puts [list "a\fb" c]
puts [list "\v"]
puts [list "a\v\\"]
puts [list "\f\}"]
set l [list "x\vy\\" "\f{"]
puts $l
puts [llength $l]
foreach e $l { puts [string length $e] }
puts [split "a\vb c" "\v"]
puts [llength [split "a\vb\fc"]]
