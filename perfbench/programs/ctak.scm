(define (ctak x y z)
  (call/cc (lambda (k) (ctak-aux k x y z))))
(define (ctak-aux k x y z)
  (if (not (< y x))
      (k z)
      (call/cc
       (lambda (k2)
         (ctak-aux k2
                   (call/cc (lambda (k3) (ctak-aux k3 (- x 1) y z)))
                   (call/cc (lambda (k4) (ctak-aux k4 (- y 1) z x)))
                   (call/cc (lambda (k5) (ctak-aux k5 (- z 1) x y))))))))

;; Sized entry: k rounds of (ctak 9 6 3), so an op's cost can be matched
;; to the other programs'.
(define (ctak-rounds k)
  (let loop ([i 0] [acc 0])
    (if (= i k) acc (loop (+ i 1) (+ acc (ctak 9 6 3))))))
